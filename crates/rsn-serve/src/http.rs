//! A minimal HTTP/1.1 subset over `std::net` streams.
//!
//! `rsnd` speaks exactly as much HTTP as its clients need: `Content-Length`
//! bodies, no chunked transfer encoding, HTTP/1.1 keep-alive with pipelined
//! requests on the server's event loop ([`parse_request_bytes`] is the
//! incremental, buffer-driven parser it uses), plus the blocking
//! one-request-per-connection helpers for the client side. Both the server
//! and the [`client`](crate::client) use this module, so the wire behaviour
//! is symmetric by construction.

use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on the request line plus headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parse/IO failure while reading a request, mapped to a status code.
#[derive(Debug)]
pub struct HttpError {
    /// Status code the server should answer with.
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self { status, message: message.into() }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.status)
    }
}

impl std::error::Error for HttpError {}

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased as received.
    pub method: String,
    /// Request path including any query string, e.g. `/v1/analyze`.
    pub path: String,
    /// Header name/value pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl Request {
    /// The first header value with the given (lowercase) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// An HTTP response ready for [`encode_response`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response with the given status and body.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self { status, headers: Vec::new(), content_type: "application/json", body }
    }

    /// A plaintext response with the given status and body.
    #[must_use]
    pub fn text(status: u16, body: String) -> Self {
        Self { status, headers: Vec::new(), content_type: "text/plain; charset=utf-8", body }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The first header value with the given name. Server-built responses
    /// keep the name as written; [`read_response`] lowercases names, so
    /// client-side lookups use lowercase.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// The canonical reason phrase for the status codes this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A request parsed out of a connection buffer by [`parse_request_bytes`]:
/// the request itself, how many buffer bytes it consumed, and whether the
/// connection should stay open for more requests afterwards.
#[derive(Clone, Debug)]
pub struct ParsedRequest {
    /// The parsed request.
    pub request: Request,
    /// Bytes of the buffer this request occupied (head + body).
    pub consumed: usize,
    /// Keep-alive decision: `true` for HTTP/1.1 unless the request said
    /// `Connection: close`; `false` for HTTP/1.0 unless it said
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// Incrementally parses the next pipelined request out of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only a prefix of a request
/// (more bytes are needed), and `Ok(Some(_))` once a full head and body are
/// present — the caller drains `consumed` bytes and may call again for the
/// next pipelined request.
///
/// # Errors
///
/// [`HttpError`] with status 400 for malformed heads and 413 when the head
/// exceeds the head cap or the declared body exceeds `max_body`. Errors are
/// unrecoverable for the connection: the byte stream is no longer framed.
pub fn parse_request_bytes(
    buf: &[u8],
    max_body: usize,
) -> Result<Option<ParsedRequest>, HttpError> {
    let Some(head) = parse_request_head(buf)? else {
        return Ok(None);
    };
    if head.content_length > max_body {
        return Err(HttpError::new(
            413,
            format!("body of {} bytes exceeds the {max_body}-byte limit", head.content_length),
        ));
    }
    if buf.len() < head.body_start + head.content_length {
        return Ok(None);
    }
    let body = buf[head.body_start..head.body_start + head.content_length].to_vec();
    let consumed = head.body_start + head.content_length;
    let ParsedHead { method, path, headers, keep_alive, .. } = head;
    let request = Request { method, path, headers, body };
    Ok(Some(ParsedRequest { request, consumed, keep_alive }))
}

/// A request head parsed out of a connection buffer by
/// [`parse_request_head`] — everything known before the body arrives, for
/// callers that stream the body instead of buffering it.
#[derive(Clone, Debug)]
pub struct ParsedHead {
    /// Upper-cased request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Lower-cased header names with trimmed values.
    pub headers: Vec<(String, String)>,
    /// Declared body length (0 when absent).
    pub content_length: usize,
    /// Offset into the buffer where the body begins.
    pub body_start: usize,
    /// Keep-alive decision (see [`ParsedRequest::keep_alive`]).
    pub keep_alive: bool,
}

impl ParsedHead {
    /// The first value of header `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Incrementally parses the next request head out of `buf`, without
/// requiring (or bounding) the body. Returns `Ok(None)` while the head is
/// still incomplete. [`parse_request_bytes`] builds on this; callers that
/// stream large bodies use it directly and consume `body_start` bytes
/// themselves.
///
/// # Errors
///
/// [`HttpError`] with status 400 for malformed heads and 413 when the head
/// exceeds the head cap.
pub fn parse_request_head(buf: &[u8]) -> Result<Option<ParsedHead>, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(413, "request head too large"));
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::new(413, "request head too large"));
    }
    let head_text = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::new(400, "request head is not valid utf-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(HttpError::new(400, format!("malformed request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(400, format!("unsupported protocol {version:?}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length: usize = content_length(&headers)?.unwrap_or(0);
    let connection =
        headers.iter().find(|(k, _)| k == "connection").map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = if version == "HTTP/1.0" {
        connection.as_deref() == Some("keep-alive")
    } else {
        connection.as_deref() != Some("close")
    };
    Ok(Some(ParsedHead {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        headers,
        content_length,
        body_start: head_end + 4,
        keep_alive,
    }))
}

/// Serializes `response` to wire bytes, with `Connection: keep-alive` or
/// `close` per `keep_alive`.
#[must_use]
pub fn encode_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(response.body.as_bytes());
    bytes
}

/// Opens a client connection to `addr` with `TCP_NODELAY` set and both IO
/// timeouts at `timeout`, for the client, loadgen and streamed uploads:
/// with Nagle on, a request's last segment waits for the ACK of the
/// previous one, which the peer delays by up to ~40 ms.
///
/// # Errors
///
/// Propagates connect and socket-option errors.
pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// Encodes a request head declaring a `content_length`-byte body, with
/// `Connection: close` when `close` (keep-alive, HTTP/1.1's default,
/// otherwise).
#[must_use]
pub(crate) fn encode_request_head(
    method: &str,
    path: &str,
    content_type: &str,
    content_length: usize,
    close: bool,
) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: rsnd\r\nContent-Type: {content_type}\r\n\
         Content-Length: {content_length}\r\n{}\r\n",
        if close { "Connection: close\r\n" } else { "" }
    )
}

/// Encodes a whole request, head and body, into one buffer so that it
/// leaves in a single write.
#[must_use]
pub fn encode_request(
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let mut bytes = encode_request_head(method, path, content_type, body.len(), close).into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Incrementally parses the next `Content-Length`-framed response out of a
/// client buffer — the keep-alive/pipelining counterpart of
/// [`read_response`]. Returns the response plus bytes consumed, or
/// `Ok(None)` when the buffer holds only a prefix.
///
/// # Errors
///
/// [`HttpError`] with status 400 for malformed responses.
pub fn parse_response_bytes(buf: &[u8]) -> Result<Option<(Response, usize)>, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::new(400, "response head is not valid utf-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::new(400, format!("malformed status line {status_line:?}")))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let content_length: usize = content_length(&headers)?
        .ok_or_else(|| HttpError::new(400, "response without content-length"))?;
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    let body = String::from_utf8(buf[body_start..body_start + content_length].to_vec())
        .map_err(|_| HttpError::new(400, "response body is not valid utf-8"))?;
    Ok(Some((Response { status, headers, content_type: "", body }, body_start + content_length)))
}

/// Reads a full `Connection: close` response from `stream` (client side).
///
/// The response is framed like a keep-alive one, by its `Content-Length`
/// (every `rsnd` answer carries one): a peer that dies mid-body is reported
/// as truncated instead of passing a cut body on as complete. A
/// close-delimited body without `Content-Length` is refused.
///
/// # Errors
///
/// [`HttpError`] with status 400 for malformed, unframed or truncated
/// responses and stream errors.
pub fn read_response(stream: &mut TcpStream) -> Result<Response, HttpError> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(map_io)?;
    let (response, _) = parse_response_bytes(&raw)?
        .ok_or_else(|| HttpError::new(400, "truncated response: peer closed before its end"))?;
    Ok(response)
}

/// Resolves the `Content-Length` of a parsed header list.
///
/// RFC 9112 §6.3: a message with more than one `Content-Length` field (or a
/// single field whose value is not one valid integer) has ambiguous framing
/// — on a keep-alive connection a smuggled second value silently desyncs
/// every pipelined message that follows. Such messages are rejected with 400
/// and the connection must be closed.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut it = headers.iter().filter(|(k, _)| k == "content-length");
    let Some((_, v)) = it.next() else { return Ok(None) };
    if it.next().is_some() {
        return Err(HttpError::new(400, "duplicate content-length header"));
    }
    // A comma-joined list ("5, 5") fails the integer parse and is rejected
    // the same way: the framing is not unambiguous.
    let n = v.parse().map_err(|_| HttpError::new(400, format!("bad content-length {v:?}")))?;
    Ok(Some(n))
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

fn map_io(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HttpError::new(408, "timed out reading from peer")
        }
        _ => HttpError::new(400, format!("io error: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// One whole request through the buffer parser, with a 1 MiB body cap.
    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        parse_request_bytes(raw, 1024 * 1024).map(|parsed| parsed.expect("whole request").request)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            roundtrip(b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/analyze");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = roundtrip(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_request_lines() {
        let err = roundtrip(b"NOPE\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn rejects_oversized_bodies() {
        let err = roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 413);
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        buf.extend_from_slice(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        let first = parse_request_bytes(&buf, 1024).unwrap().unwrap();
        assert_eq!(first.request.method, "POST");
        assert_eq!(first.request.body, b"hello");
        assert!(first.keep_alive, "HTTP/1.1 defaults to keep-alive");
        buf.drain(..first.consumed);
        let second = parse_request_bytes(&buf, 1024).unwrap().unwrap();
        assert_eq!(second.request.path, "/metrics");
        assert!(!second.keep_alive, "Connection: close turns keep-alive off");
        buf.drain(..second.consumed);
        assert!(buf.is_empty());
        assert!(parse_request_bytes(&buf, 1024).unwrap().is_none());
    }

    #[test]
    fn incremental_parser_waits_for_partial_requests() {
        let full = b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..full.len() {
            assert!(
                parse_request_bytes(&full[..cut], 1024).unwrap().is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        assert!(parse_request_bytes(full, 1024).unwrap().is_some());
    }

    #[test]
    fn duplicate_content_length_is_rejected_everywhere() {
        // RFC 9112 §6.3: conflicting Content-Length fields desync framing on
        // a pipelined connection. A first-match-wins parser would read 5
        // bytes here and treat the rest of "hello-smuggled" as the next
        // pipelined request; every parse site must 400 instead.
        let raw =
            b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 14\r\n\r\nhello-smuggled";
        let err = parse_request_bytes(raw, 1024).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("content-length"), "{}", err.message);
        let err = roundtrip(raw).unwrap_err();
        assert_eq!(err.status, 400);
        // Identical duplicates are just as ambiguous — reject, don't merge.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse_request_bytes(raw, 1024).unwrap_err().status, 400);
        // Client side: a duplicate-length response must not desync the
        // keep-alive response stream either.
        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nokok";
        assert_eq!(parse_response_bytes(resp).unwrap_err().status, 400);
        // A comma-joined value is not a single valid integer.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello";
        assert_eq!(parse_request_bytes(raw, 1024).unwrap_err().status, 400);
    }

    #[test]
    fn incremental_parser_rejects_garbage_and_oversize() {
        assert_eq!(parse_request_bytes(b"NOPE\r\n\r\n", 1024).unwrap_err().status, 400);
        let oversized = b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        assert_eq!(parse_request_bytes(oversized, 1024).unwrap_err().status, 413);
        // A head that never terminates trips the cap even without \r\n\r\n.
        let endless = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert_eq!(parse_request_bytes(&endless, 1024).unwrap_err().status, 413);
        // HTTP/1.0 defaults to close unless it opts in.
        let old = parse_request_bytes(b"GET / HTTP/1.0\r\n\r\n", 1024).unwrap().unwrap();
        assert!(!old.keep_alive);
        let old = parse_request_bytes(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 1024)
            .unwrap()
            .unwrap();
        assert!(old.keep_alive);
    }

    #[test]
    fn encoded_responses_parse_back_incrementally() {
        let resp = Response::json(200, "{\"ok\":true}".to_string()).with_header("X-Cache", "hit");
        let mut bytes = encode_response(&resp, true);
        bytes.extend_from_slice(&encode_response(&Response::text(503, "busy".into()), false));
        let (first, consumed) = parse_response_bytes(&bytes).unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, "{\"ok\":true}");
        assert_eq!(first.header("connection"), Some("keep-alive"));
        assert_eq!(first.header("x-cache"), Some("hit"));
        bytes.drain(..consumed);
        let (second, consumed) = parse_response_bytes(&bytes).unwrap().unwrap();
        assert_eq!(second.status, 503);
        assert_eq!(second.header("connection"), Some("close"));
        bytes.drain(..consumed);
        assert!(parse_response_bytes(&bytes).unwrap().is_none());
    }

    #[test]
    fn connect_sets_nodelay_and_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stream = connect(&addr, Duration::from_secs(3)).unwrap();
        assert!(stream.nodelay().unwrap());
        assert_eq!(stream.read_timeout().unwrap(), Some(Duration::from_secs(3)));
        assert_eq!(stream.write_timeout().unwrap(), Some(Duration::from_secs(3)));
    }

    #[test]
    fn encoded_request_is_one_buffer_holding_exactly_one_request() {
        for close in [true, false] {
            let bytes = encode_request("POST", "/v1/analyze", "application/json", b"{}", close);
            let parsed = parse_request_bytes(&bytes, 1024).unwrap().unwrap();
            assert_eq!(parsed.consumed, bytes.len());
            assert_eq!(parsed.keep_alive, !close);
            assert_eq!(parsed.request.method, "POST");
            assert_eq!(parsed.request.path, "/v1/analyze");
            assert_eq!(parsed.request.header("content-type"), Some("application/json"));
            assert_eq!(parsed.request.body, b"{}");
        }
        let head = encode_request_head("PUT", "/v1/networks", "text/plain", 5, true);
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(b"hello");
        assert_eq!(bytes, encode_request("PUT", "/v1/networks", "text/plain", b"hello", true));
    }

    #[test]
    fn response_roundtrips_through_the_client_parser() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let resp =
                Response::json(200, "{\"ok\":true}".to_string()).with_header("X-Cache", "hit");
            stream.write_all(&encode_response(&resp, false)).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let resp = read_response(&mut stream).unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"ok\":true}");
        // The client parser lowercases header names.
        assert_eq!(resp.header("x-cache"), Some("hit"));
    }

    #[test]
    fn read_response_refuses_cut_and_unframed_bodies() {
        let cases: [(&[u8], &str); 2] = [
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\nConnection: close\r\n\r\n{\"ok\"",
                "truncated response: peer closed before its end",
            ),
            (
                b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{\"ok\":true}",
                "response without content-length",
            ),
        ];
        for (raw, message) in cases {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stream.write_all(raw).unwrap();
            });
            let mut stream = TcpStream::connect(addr).unwrap();
            let err = read_response(&mut stream).unwrap_err();
            server.join().unwrap();
            assert_eq!((err.status, err.message.as_str()), (400, message));
        }
    }
}
