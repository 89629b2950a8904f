//! A closed-loop wire client: one request in flight per connection,
//! encoded and decoded with the server's own client-side codecs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use serve::command::{Cmd, Parse, Reply};
use serve::{memcached, resp};

/// How long one request may take before the run is declared broken.
/// An online mitigation stalls a request for a few hundred ms; this
/// only catches a hung server.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Wire protocol of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// memcached text protocol.
    Memcached,
    /// RESP.
    Resp,
}

/// One connection.
pub struct Client {
    stream: TcpStream,
    proto: Proto,
    buf: Vec<u8>,
    /// Bytes of the last request sent (kept for codec replay).
    pub last_request: Vec<u8>,
}

impl Client {
    /// Connects.
    pub fn connect(addr: SocketAddr, proto: Proto) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REQUEST_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Client {
            stream,
            proto,
            buf: Vec::with_capacity(4096),
            last_request: Vec::with_capacity(256),
        })
    }

    /// The connection's protocol.
    pub fn proto(&self) -> Proto {
        self.proto
    }

    /// Sends one command and waits for its reply.
    pub fn request(&mut self, cmd: &Cmd) -> Result<Reply, String> {
        self.last_request.clear();
        match self.proto {
            Proto::Memcached => memcached::encode_cmd(cmd, &mut self.last_request),
            Proto::Resp => resp::encode_cmd(cmd, &mut self.last_request),
        }
        self.stream
            .write_all(&self.last_request)
            .map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 4096];
        loop {
            let parsed = match self.proto {
                Proto::Memcached => memcached::parse_reply(&self.buf),
                Proto::Resp => resp::parse_reply(&self.buf),
            };
            match parsed {
                Parse::Done(reply, n) => {
                    self.buf.drain(..n);
                    return Ok(reply);
                }
                Parse::Error(e, _) => return Err(format!("malformed reply: {e}")),
                Parse::Incomplete => {}
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Fetches and parses `stats` (memcached connections only).
    pub fn stats(&mut self) -> Result<Stats, String> {
        match self.request(&Cmd::Stats)? {
            Reply::Stats(kvs) => Ok(Stats(kvs)),
            other => Err(format!("stats: unexpected reply {other:?}")),
        }
    }
}

/// A `stats` snapshot.
#[derive(Debug, Clone)]
pub struct Stats(pub Vec<(String, String)>);

impl Stats {
    /// A counter by name.
    pub fn u64(&self, name: &str) -> Result<u64, String> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .ok_or_else(|| format!("stats lack {name}"))?
            .1
            .parse()
            .map_err(|e| format!("stats {name}: {e}"))
    }
}

/// Wire form of a benchmark key.
pub fn key_bytes(key: u64) -> Vec<u8> {
    key.to_string().into_bytes()
}

/// A `get` of one key.
pub fn get_cmd(key: u64) -> Cmd {
    Cmd::Get {
        keys: vec![key_bytes(key)],
    }
}

/// A `set`.
pub fn set_cmd(key: u64, value: Vec<u8>) -> Cmd {
    Cmd::Set {
        key: key_bytes(key),
        value,
        noreply: false,
    }
}

/// The single value of a one-key get reply (`None` = miss), or an error
/// for any other reply.
pub fn get_value(reply: &Reply) -> Result<Option<&[u8]>, String> {
    match reply {
        Reply::Values { items } if items.is_empty() => Ok(None),
        Reply::Values { items } if items.len() == 1 => Ok(Some(&items[0].1)),
        other => Err(format!("get: unexpected reply {other:?}")),
    }
}

/// Whether a set reply acknowledges the write. RESP encodes `STORED` as
/// `+OK`, which its client codec reads back as [`Reply::Ok`].
pub fn set_stored(proto: Proto, reply: &Reply) -> bool {
    match proto {
        Proto::Memcached => *reply == Reply::Stored,
        Proto::Resp => *reply == Reply::Ok,
    }
}
