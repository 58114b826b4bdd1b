//! A minimal HTTP/1.1 layer on `std` I/O: just enough request parsing and
//! response writing for the prediction server. Supports persistent
//! connections (`keep-alive`), `Content-Length` bodies, and bounded header
//! and body sizes; anything exotic (chunked uploads, continuations) is
//! rejected rather than guessed at.

use std::io::Write;

/// Maximum accepted size of the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request-body size.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parse/read failure, mapped to the HTTP status the server should send.
#[derive(Debug)]
pub struct HttpError {
    /// Status code to answer with (400, 413, 431, ...).
    pub status: u16,
    /// Human-readable reason included in the response body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, ...).
    pub method: String,
    /// Path portion of the target, without the query string.
    pub path: String,
    /// Raw query string (without `?`), if any.
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }

    /// A query parameter's (URL-decoded-enough) value: `?k=5` → `"5"`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// A fully parsed request head awaiting its body bytes.
#[derive(Debug)]
struct PendingHead {
    method: String,
    path: String,
    query: Option<String>,
    headers: Vec<(String, String)>,
    content_length: usize,
}

/// Incremental HTTP/1.1 request parser: feed it bytes as they arrive (in
/// chunks of any size, split anywhere) and pull complete requests out.
///
/// The event loop owns one per connection; `push` never allocates more than
/// the byte cap it is about to enforce — the head buffer is bounded by
/// [`MAX_HEAD_BYTES`] and the body buffer is only grown *after* the declared
/// `Content-Length` has been checked against [`MAX_BODY_BYTES`], so a hostile
/// `Content-Length: 99999999999` costs nothing.
///
/// After an `Err` the connection is unusable (the caller answers with the
/// error status and closes); further calls keep returning errors rather than
/// resynchronising mid-stream.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Resume point for the head-terminator scan (avoids rescanning the
    /// whole head on every pushed chunk).
    scan: usize,
    /// Parsed head, once the blank line has been seen; `buf` then holds
    /// body bytes only.
    pending: Option<PendingHead>,
    poisoned: bool,
}

impl RequestParser {
    /// A fresh parser with empty buffers.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the stream ends mid-request (bytes buffered or a head
    /// waiting on its body). Used to distinguish a clean keep-alive close
    /// from a truncated request at EOF.
    pub fn has_partial(&self) -> bool {
        self.pending.is_some() || !self.buf.is_empty()
    }

    /// Tries to extract the next complete request from the buffered bytes.
    /// `Ok(None)` means "need more bytes".
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        if self.poisoned {
            return Err(HttpError::new(400, "connection already failed parsing"));
        }
        match self.next_request_inner() {
            Ok(r) => Ok(r),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn next_request_inner(&mut self) -> Result<Option<Request>, HttpError> {
        if self.pending.is_none() {
            // Tolerate blank lines before the request line (RFC 9112 §2.2).
            loop {
                if self.buf.starts_with(b"\r\n") {
                    self.buf.drain(..2);
                } else if self.buf.first() == Some(&b'\n') {
                    self.buf.drain(..1);
                } else {
                    break;
                }
            }
            if self.buf == b"\r" {
                return Ok(None); // half a CRLF; wait for the rest
            }
            // Find the blank line ending the head: "\n\r\n" or "\n\n".
            // The scan resumes where the last push left off (backed up two
            // bytes so a terminator straddling chunk boundaries is seen).
            let mut head_end = None; // (head bytes incl. final \n, total consumed)
            let mut i = self.scan;
            while i < self.buf.len() {
                if self.buf[i] == b'\n' {
                    match (self.buf.get(i + 1), self.buf.get(i + 2)) {
                        (Some(b'\n'), _) => {
                            head_end = Some((i + 1, i + 2));
                            break;
                        }
                        (Some(b'\r'), Some(b'\n')) => {
                            head_end = Some((i + 1, i + 3));
                            break;
                        }
                        _ => {}
                    }
                }
                i += 1;
            }
            let Some((head_len, consumed)) = head_end else {
                self.scan = self.buf.len().saturating_sub(2);
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(HttpError::new(431, "request head too large"));
                }
                return Ok(None);
            };
            if head_len > MAX_HEAD_BYTES {
                return Err(HttpError::new(431, "request head too large"));
            }
            let head = parse_head(&self.buf[..head_len])?;
            self.buf.drain(..consumed);
            self.scan = 0;
            self.pending = Some(head);
        }

        // Body: the declared length was bounds-checked in `parse_head`
        // before any body buffer could grow.
        let need = self.pending.as_ref().map(|p| p.content_length).unwrap_or(0);
        if self.buf.len() < need {
            return Ok(None);
        }
        let head = self.pending.take().expect("pending head");
        let body: Vec<u8> = self.buf.drain(..need).collect();
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            query: head.query,
            headers: head.headers,
            body,
        }))
    }
}

/// Parses a complete request head (request line + header lines, including
/// the final `\n` but not the blank line).
fn parse_head(raw: &[u8]) -> Result<PendingHead, HttpError> {
    let head = std::str::from_utf8(raw)
        .map_err(|_| HttpError::new(400, "request head is not valid UTF-8"))?;
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::new(400, "empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(505, format!("unsupported {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::new(501, "chunked request bodies not supported"));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, format!("bad Content-Length {v:?}")))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::new(413, "request body too large"));
    }
    Ok(PendingHead {
        method,
        path,
        query,
        headers,
        content_length,
    })
}

/// The standard reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// An outgoing response.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers as `(name, value)` pairs (e.g. the per-request
    /// `X-BF-Trace-Id`).
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Adds a response header (builder style).
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let payload = serde_json::to_string(&ErrorBody {
            error: message.to_string(),
        })
        .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string());
        Response::json(status, payload)
    }

    /// Writes the response; `close` controls the `Connection` header.
    pub fn write_to<W: Write>(&self, writer: &mut W, close: bool) -> std::io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        )?;
        for (name, value) in &self.headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        write!(writer, "\r\n")?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

#[derive(serde::Serialize)]
struct ErrorBody {
    error: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses the first request out of `raw`, pushed in one piece.
    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new();
        parser.push(raw.as_bytes());
        parser.next_request()
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse(
            "POST /predict?debug=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.query_param("debug"), Some("1"));
        assert_eq!(req.body, b"{\"a\": 1}\n");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn eof_before_any_bytes_is_none() {
        let mut parser = RequestParser::new();
        parser.push(b"");
        assert!(parser.next_request().unwrap().is_none());
        assert!(!parser.has_partial(), "empty input leaves no partial state");
    }

    #[test]
    fn rejects_oversized_body_and_bad_length() {
        let big = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(&big).unwrap_err().status, 413);
        let bad = "POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert_eq!(parse(bad).unwrap_err().status, 400);
    }

    #[test]
    fn rejects_oversized_head() {
        let raw = format!(
            "GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(parse(&raw).unwrap_err().status, 431);
    }

    #[test]
    fn connection_close_is_detected() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn incremental_parser_handles_any_chunking() {
        let raw = b"POST /predict?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 4\r\n\r\nbodyGET /healthz HTTP/1.1\r\n\r\n";
        // Feed the same byte stream one chunk size at a time; every split
        // must yield the same two requests.
        for chunk in 1..raw.len() {
            let mut parser = RequestParser::new();
            let mut got = Vec::new();
            for piece in raw.chunks(chunk) {
                parser.push(piece);
                while let Some(req) = parser.next_request().unwrap() {
                    got.push(req);
                }
            }
            assert_eq!(got.len(), 2, "chunk size {chunk}");
            assert_eq!(got[0].method, "POST");
            assert_eq!(got[0].body, b"body");
            assert_eq!(got[1].method, "GET");
            assert_eq!(got[1].path, "/healthz");
            assert!(!parser.has_partial());
        }
    }

    #[test]
    fn incremental_parser_reports_partial_state() {
        let mut p = RequestParser::new();
        assert!(!p.has_partial());
        p.push(b"GET /x HTTP/1.1\r\nHost:");
        assert!(p.next_request().unwrap().is_none());
        assert!(p.has_partial());
        p.push(b" a\r\n\r\n");
        assert!(p.next_request().unwrap().is_some());
        assert!(!p.has_partial());
        // A head waiting on its body is also partial.
        p.push(b"POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nab");
        assert!(p.next_request().unwrap().is_none());
        assert!(p.has_partial());
    }

    #[test]
    fn incremental_parser_rejects_oversized_content_length_before_buffering() {
        let mut p = RequestParser::new();
        p.push(format!("POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n", u128::MAX).as_bytes());
        assert_eq!(p.next_request().unwrap_err().status, 400); // overflows usize parse
        let mut p = RequestParser::new();
        p.push(
            format!(
                "POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        assert_eq!(p.next_request().unwrap_err().status, 413);
    }

    #[test]
    fn incremental_parser_caps_head_growth_without_terminator() {
        let mut p = RequestParser::new();
        let filler = vec![b'a'; 4096];
        let mut status = None;
        for _ in 0..=(MAX_HEAD_BYTES / filler.len() + 1) {
            p.push(&filler);
            match p.next_request() {
                Ok(None) => {}
                Err(e) => {
                    status = Some(e.status);
                    break;
                }
                Ok(Some(_)) => panic!("garbage parsed as a request"),
            }
        }
        assert_eq!(status, Some(431));
        // Poisoned after the error.
        assert!(p.next_request().is_err());
    }

    #[test]
    fn incremental_parser_skips_leading_blank_lines() {
        let mut p = RequestParser::new();
        p.push(b"\r\n\n\r\nGET /x HTTP/1.1\r\n\r\n");
        let req = p.next_request().unwrap().unwrap();
        assert_eq!(req.path, "/x");
    }

    #[test]
    fn response_writes_wire_format() {
        let mut buf = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut buf = Vec::new();
        Response::json(200, "{}".into())
            .with_header("X-BF-Trace-Id", "bf-1234".into())
            .write_to(&mut buf, false)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("X-BF-Trace-Id: bf-1234\r\n"));
        let head_end = text.find("\r\n\r\n").unwrap();
        assert!(text.find("X-BF-Trace-Id").unwrap() < head_end);
        assert!(text.ends_with("{}"));
    }

    #[test]
    fn error_envelope_is_json() {
        let r = Response::error(422, "gpu mismatch");
        assert_eq!(r.status, 422);
        assert_eq!(
            String::from_utf8(r.body).unwrap(),
            "{\"error\":\"gpu mismatch\"}"
        );
    }
}
