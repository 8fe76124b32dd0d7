//! A minimal blocking HTTP client over one keep-alive connection, used by
//! the loopback tests, the serving bench and the example. Not a general
//! client: exactly what the shim server speaks (HTTP/1.1, `Content-Length`
//! bodies).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One keep-alive connection to a serving instance.
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects to a server address.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the connection fails.
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient { stream, reader })
    }

    /// Sends a `GET` and returns `(status, body)`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on a broken connection or malformed response.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    /// Sends a `POST` with a body and returns `(status, body)`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on a broken connection or malformed response.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        // One write per message: the socket is `TCP_NODELAY`, so a separate
        // head and body would leave as two segments.
        let mut message = Vec::with_capacity(64 + path.len() + body.len());
        write!(
            message,
            "{method} {path} HTTP/1.1\r\nHost: geopriv\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        message.extend_from_slice(body.as_bytes());
        self.stream.write_all(&message)?;
        self.stream.flush()?;

        let malformed =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(malformed("server closed the connection"));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(malformed("connection closed mid-headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length =
                    value.trim().parse().map_err(|_| malformed("malformed content-length"))?;
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body).map(|text| (status, text)).map_err(|_| malformed("non-UTF-8 body"))
    }
}
