//! A deliberately minimal HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! The daemon needs exactly four things from HTTP: parse a request line,
//! read headers, read a `Content-Length` body, and write a response with
//! `Connection: close`. Anything fancier (chunked encoding, keep-alive,
//! pipelining) adds failure modes without adding value to a job-submission
//! API, so it is intentionally absent; every connection carries one
//! request. Malformed input maps to a `400`, oversized input to `413`,
//! and a stalled peer is cut off by the socket read timeout rather than
//! wedging an acceptor thread forever.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on request bodies. Specs are small JSON documents; anything
/// bigger is a client bug or abuse.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (uppercased by the client, taken verbatim).
    pub method: String,
    /// Request path (no query parsing: the API does not use queries).
    pub path: String,
    /// Headers as `(lowercased-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed (mapped to a status code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically broken request head → 400.
    Malformed(String),
    /// Head or body above the hard limits → 413.
    TooLarge,
}

impl HttpError {
    /// The status code this parse failure answers with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::TooLarge => 413,
        }
    }
}

/// Reads one request from the stream.
///
/// # Errors
///
/// `std::io::Error` for transport failures (timeouts included); an inner
/// [`HttpError`] for protocol failures that deserve an HTTP answer.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Result<Request, HttpError>> {
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    // Request line.
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.is_empty() {
        return Ok(Err(HttpError::Malformed("empty request".into())));
    }
    head.push_str(&line);
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(Err(HttpError::Malformed("bad request line".into())));
    };
    let method = method.to_string();
    let path = path.to_string();

    // Headers.
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        head.push_str(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Ok(Err(HttpError::TooLarge));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Ok(Err(HttpError::Malformed(format!("bad header: {trimmed}"))));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body.
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>());
    let body = match content_length {
        None => Vec::new(),
        Some(Err(_)) => {
            return Ok(Err(HttpError::Malformed("bad content-length".into())));
        }
        Some(Ok(n)) if n > MAX_BODY_BYTES => return Ok(Err(HttpError::TooLarge)),
        Some(Ok(n)) => {
            let mut body = vec![0u8; n];
            reader.read_exact(&mut body)?;
            body
        }
    };

    Ok(Ok(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Content-Length`, and
    /// `Connection: close` are always emitted).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialises and writes the response; the connection is then done.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let reason = reason_phrase(self.status);
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason);
        head.push_str(&format!("Content-Type: {}\r\n", self.content_type));
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str("Connection: close\r\n");
        for (k, v) in &self.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Minimal one-shot client: connect, send one request, read the full
/// response. Used by the CLI's `submit`/`status` commands and by tests.
///
/// # Errors
///
/// Transport failures and responses with an unparseable status line.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(std::time::Duration::from_secs(60)))?;
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if let Some(b) = body {
        req.push_str("Content-Type: application/json\r\n");
        req.push_str(&format!("Content-Length: {}\r\n", b.len()));
    }
    req.push_str("\r\n");
    if let Some(b) = body {
        req.push_str(b);
    }
    stream.write_all(req.as_bytes())?;
    stream.flush()?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response status line")
        })?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn).unwrap();
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            round_trip(b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = round_trip(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert_eq!(round_trip(b"\r\n").unwrap_err().status(), 400);
        assert_eq!(
            round_trip(b"POST /jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
        let huge = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(round_trip(huge.as_bytes()).unwrap_err().status(), 413);
    }

    #[test]
    fn response_writes_content_length_and_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            Response::json(429, "{\"error\":\"full\"}")
                .with_header("Retry-After", "2")
                .write_to(&mut conn)
                .unwrap();
        });
        let mut s = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        server.join().unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":\"full\"}"), "{text}");
    }
}
