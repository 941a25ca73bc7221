//! A minimal HTTP/1.1 client over `std::net`: keep-alive connections,
//! pipelined batches, and an SSE reader. It is the load generator's whole
//! view of the server — every reply is classified here, and anything that is
//! not the expected status is a failed operation for the caller to count.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Generous: a cold 9,702-terminal view takes well under a second, and a
/// hung server must fail the run rather than hang it past the driver's cap.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Status line, ETag (if any), and body of one reply.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

/// Serialize one request. `inm` adds `If-None-Match`; an empty `body` on a
/// GET sends no `Content-Length`.
pub fn request(method: &str, target: &str, body: &str, inm: Option<&str>) -> Vec<u8> {
    let mut req = format!("{method} {target} HTTP/1.1\r\nHost: e2e\r\n");
    if method == "POST" {
        req.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    if let Some(tag) = inm {
        req.push_str(&format!("If-None-Match: {tag}\r\n"));
    }
    req.push_str("\r\n");
    req.push_str(body);
    req.into_bytes()
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn { writer, reader: BufReader::with_capacity(64 * 1024, stream) })
    }

    /// Write already-serialized requests (one or a pipelined batch).
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Read one reply's head: status, ETag and `Content-Length`.
    fn recv_head(&mut self) -> io::Result<(u16, Option<String>, usize)> {
        let mut line = String::new();
        let mut status = 0u16;
        let mut etag = None;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF in reply head"));
            }
            let text = line.trim_end();
            if text.is_empty() {
                break;
            }
            if status == 0 {
                status =
                    text.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad status line")
                    })?;
            } else if let Some((name, value)) = text.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                } else if name.eq_ignore_ascii_case("etag") {
                    etag = Some(value.trim().to_string());
                }
            }
        }
        Ok((status, etag, length))
    }

    /// Read one `Content-Length`-framed reply.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let (status, etag, length) = self.recv_head()?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, etag, body })
    }

    /// Read one reply and drop its body unseen, for a caller that only counts
    /// statuses: the bytes still cross the socket, but the load generator
    /// does not allocate and fill a buffer for each of them.
    pub fn recv_status(&mut self) -> io::Result<u16> {
        let (status, _, length) = self.recv_head()?;
        io::copy(&mut (&mut self.reader).take(length as u64), &mut io::sink())?;
        Ok(status)
    }

    pub fn roundtrip(&mut self, bytes: &[u8]) -> io::Result<Reply> {
        self.send(bytes)?;
        self.recv()
    }
}

/// One SSE event as it came off the wire.
pub struct SseEvent<'a> {
    pub event: &'a str,
    pub data: &'a str,
}

/// Attach to `/runs/{run}/stream` and hand every event to `on_event` as it
/// arrives, until the server closes the stream. Returns the HTTP status of
/// the attach (anything but 200 means no events were read).
pub fn watch_sse(
    addr: SocketAddr,
    run: &str,
    mut on_event: impl FnMut(SseEvent<'_>),
) -> io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(&request("GET", &format!("/runs/{run}/stream"), "", None))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut status = 0u16;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF in SSE head"));
        }
        let text = line.trim_end();
        if text.is_empty() {
            break;
        }
        if status == 0 {
            status = text.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        }
    }
    if status != 200 {
        // An error reply is a normal framed body; drain it so the close is clean.
        let _ = reader.read_to_end(&mut Vec::new());
        return Ok(status);
    }
    let mut event = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(status);
        }
        let text = line.trim_end();
        if let Some(name) = text.strip_prefix("event: ") {
            event = name.to_string();
        } else if let Some(data) = text.strip_prefix("data: ") {
            on_event(SseEvent { event: &event, data });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_carry_length_and_validators() {
        let post =
            String::from_utf8(request("POST", "/views?run=ab", "{x}", Some("\"t\""))).unwrap();
        assert!(post.starts_with("POST /views?run=ab HTTP/1.1\r\n"));
        assert!(post.contains("Content-Length: 3\r\n"));
        assert!(post.contains("If-None-Match: \"t\"\r\n"));
        assert!(post.ends_with("\r\n\r\n{x}"));
        let get = String::from_utf8(request("GET", "/runs", "", None)).unwrap();
        assert!(!get.contains("Content-Length"));
        assert!(get.ends_with("\r\n\r\n"));
    }
}
