//! A minimal keep-alive HTTP/1.1 client for the load generator.
//!
//! Written apart from the daemon's own `http` module so that the bytes
//! the benchmark compares (served step replies) come through a parser
//! that is not the one under test. It understands exactly what the
//! daemon sends on the routes the benchmark uses: a status line, headers,
//! and a `content-length` body.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One persistent connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response: status code and body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and 10 s socket timeouts.
    ///
    /// # Errors
    ///
    /// Connect and socket-option failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// Socket failures, a closed connection, or a malformed response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n",
            body.len()
        )
        .into_bytes();
        if !body.is_empty() {
            wire.extend_from_slice(b"content-type: application/json\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(body);
        self.stream.write_all(&wire)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(reply) = parse_reply(&mut self.buf)? {
                return Ok(reply);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn bad(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

/// Takes one complete response off the front of `buf`, or `None` when
/// more bytes are needed.
///
/// # Errors
///
/// A malformed status line or header block.
pub fn parse_reply(buf: &mut Vec<u8>) -> io::Result<Option<Reply>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty head"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = value
                .trim()
                .parse()
                .map_err(|_| bad("bad content-length"))?;
        } else if name.trim().eq_ignore_ascii_case("transfer-encoding") {
            return Err(bad(
                "chunked replies are not expected on benchmarked routes",
            ));
        }
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    let body = buf[body_start..body_start + length].to_vec();
    buf.drain(..body_start + length);
    Ok(Some(Reply { status, body }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_and_partial_replies() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 404 Not Found\r\ncontent-length: 3\r\n\r\nab".to_vec();
        assert_eq!(
            parse_reply(&mut buf).unwrap(),
            Some(Reply {
                status: 200,
                body: b"hi".to_vec()
            })
        );
        assert_eq!(parse_reply(&mut buf).unwrap(), None, "body incomplete");
        buf.push(b'c');
        assert_eq!(
            parse_reply(&mut buf).unwrap(),
            Some(Reply {
                status: 404,
                body: b"abc".to_vec()
            })
        );
        assert!(buf.is_empty());
        let mut junk = b"HTTP/1.1 abc\r\n\r\n".to_vec();
        assert!(parse_reply(&mut junk).is_err());
    }
}
