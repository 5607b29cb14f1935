//! Wire framing for the serving protocol, and a blocking client.
//!
//! The wire carries exactly the byte strings [`crate::protocol`] produces:
//! self-delimiting frames (8-byte header, varint body length, body, 8-byte
//! checksum), so framing's only jobs are to find frame boundaries in the
//! stream and to bound how much a peer can make the server buffer. The
//! server side is [`crate::pool`]; it finds boundaries with
//! [`frame_boundary`], and [`Client`] reads with [`read_frame_into`].
//! Everything semantic — checksums, kinds, versions, body tags — is judged
//! by the codec layer after the frame is reassembled, which keeps the
//! adversarial-input story in one place.
//!
//! A framing-level problem (wrong magic, a declared length over
//! [`MAX_WIRE_FRAME`]) leaves the stream position meaningless, so the
//! server answers with one typed error response and closes the connection;
//! in-frame corruption (bad checksum, unknown tag) is recoverable and the
//! connection stays open.

use crate::protocol::{EncodeBuf, Request, Response};
use ifs_database::codec::{DecodeError, SNAPSHOT_MAGIC};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on a single wire frame's declared body length, in bytes
/// (1 GiB). A peer can therefore never make the transport buffer more
/// than this (plus the fixed header/checksum overhead) per frame.
pub const MAX_WIRE_FRAME: usize = 1 << 30;

/// Reads one complete frame from `stream`.
///
/// - `Ok(None)` — the peer closed the connection cleanly at a frame
///   boundary.
/// - `Ok(Some(Ok(bytes)))` — one whole frame, ready for the codec layer.
/// - `Ok(Some(Err(e)))` — the stream is not speaking the frame format
///   (bad magic, oversized or malformed length); the caller should answer
///   once and close, since the next frame boundary is unknowable.
/// - `Err(_)` — transport failure (including mid-frame EOF).
pub fn read_frame<R: Read>(stream: &mut R) -> io::Result<Option<Result<Vec<u8>, DecodeError>>> {
    let mut frame = Vec::new();
    Ok(read_frame_into(stream, &mut frame)?.map(|r| r.map(|()| frame)))
}

/// [`read_frame`] into a caller-owned buffer: `frame` is cleared and
/// overwritten with the complete frame bytes, retaining its capacity, so a
/// connection that reads every frame through one buffer stops allocating
/// once it has seen its largest frame. The `Option`/`Result` layering is
/// exactly [`read_frame`]'s; on `Some(Ok(()))` the frame spans all of
/// `frame`.
pub fn read_frame_into<R: Read>(
    stream: &mut R,
    frame: &mut Vec<u8>,
) -> io::Result<Option<Result<(), DecodeError>>> {
    frame.clear();
    // Header: magic u32 + kind u16 + version u16. EOF before the first
    // byte is a clean close; EOF after it is a truncated frame.
    let mut header = [0u8; 8];
    match stream.read_exact(&mut header[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    stream.read_exact(&mut header[1..])?;
    let magic = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if magic != SNAPSHOT_MAGIC {
        return Ok(Some(Err(DecodeError::BadMagic(magic))));
    }
    frame.extend_from_slice(&header);
    // Varint body length, byte-wise off the stream.
    let mut body_len = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        stream.read_exact(&mut b)?;
        frame.push(b[0]);
        let payload = u64::from(b[0] & 0x7F);
        if shift >= 63 && payload > 1 {
            return Ok(Some(Err(DecodeError::Corrupt("frame length varint overflows u64".into()))));
        }
        body_len |= payload << shift;
        if b[0] & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Ok(Some(Err(DecodeError::Corrupt(
                "frame length varint continues beyond 10 bytes".into(),
            ))));
        }
    }
    if body_len > MAX_WIRE_FRAME as u64 {
        return Ok(Some(Err(DecodeError::Corrupt(format!(
            "frame declares a {body_len}-byte body, transport cap is {MAX_WIRE_FRAME}"
        )))));
    }
    // Body + trailing u64 checksum; validated by the codec layer.
    let start = frame.len();
    frame.resize(start + body_len as usize + 8, 0);
    stream.read_exact(&mut frame[start..])?;
    Ok(Some(Ok(())))
}

/// Writes one already-framed message and flushes it.
pub fn write_frame<W: Write>(stream: &mut W, frame: &[u8]) -> io::Result<()> {
    stream.write_all(frame)?;
    stream.flush()
}

/// Finds the first frame boundary in a buffered prefix of a byte stream —
/// the incremental-parse form of [`read_frame_into`] the pooled
/// (nonblocking) server uses, where bytes arrive in arbitrary chunks
/// and a partial frame must simply wait for more.
///
/// - `Ok(Some(len))` — `buf[..len]` is one complete frame.
/// - `Ok(None)` — `buf` is a valid but incomplete prefix; read more.
/// - `Err(_)` — `buf` can never extend to a frame (bad magic, malformed
///   or oversized length); the stream position is meaningless and the
///   connection should be closed after one typed error response.
///
/// Exactly the checks [`read_frame_into`] performs, judged over a slice:
/// the blocking reader and the pooled server refuse the same streams with
/// the same errors.
pub fn frame_boundary(buf: &[u8]) -> Result<Option<usize>, DecodeError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let magic = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
    if magic != SNAPSHOT_MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    // Header is magic u32 + kind u16 + version u16; varint length follows.
    let mut body_len = 0u64;
    let mut shift = 0u32;
    let mut at = 8;
    loop {
        let Some(&b) = buf.get(at) else {
            return Ok(None);
        };
        at += 1;
        let payload = u64::from(b & 0x7F);
        if shift >= 63 && payload > 1 {
            return Err(DecodeError::Corrupt("frame length varint overflows u64".into()));
        }
        body_len |= payload << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::Corrupt(
                "frame length varint continues beyond 10 bytes".into(),
            ));
        }
    }
    if body_len > MAX_WIRE_FRAME as u64 {
        return Err(DecodeError::Corrupt(format!(
            "frame declares a {body_len}-byte body, transport cap is {MAX_WIRE_FRAME}"
        )));
    }
    // Body + trailing u64 checksum.
    let total = at + body_len as usize + 8;
    Ok(if buf.len() >= total { Some(total) } else { None })
}

/// A blocking client for the serving protocol: one call, one response.
/// Holds per-connection reusable encode/decode buffers, so a client
/// issuing many calls stops allocating at the framing layer once warm.
pub struct Client {
    stream: TcpStream,
    frame: Vec<u8>,
    buf: EncodeBuf,
}

impl Client {
    /// Wraps an established connection.
    pub fn new(stream: TcpStream) -> Self {
        Self { stream, frame: Vec::new(), buf: EncodeBuf::new() }
    }

    /// Connects to `addr`, retrying for roughly `retry_ms` milliseconds —
    /// enough slack for a just-spawned server process to reach `bind`.
    pub fn connect(addr: &str, retry_ms: u64) -> io::Result<Self> {
        let mut waited = 0u64;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(Self::new(stream)),
                Err(e) if waited >= retry_ms => return Err(e),
                Err(_) => {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    waited += 50;
                }
            }
        }
    }

    /// Sends one request and blocks for its response. The outer `Err` is
    /// transport failure (including the server closing mid-call); the
    /// inner `Err` means the response bytes refused to decode.
    pub fn call(&mut self, request: &Request) -> io::Result<Result<Response, DecodeError>> {
        self.send(request)?;
        self.recv()
    }

    /// Writes one request frame without waiting for its response — the
    /// pipelined half of [`call`](Self::call). The server answers strictly
    /// in send order on this connection, so `k` sends followed by `k`
    /// [`recv`](Self::recv)s pair up positionally.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, request.encode_into(&mut self.buf))
    }

    /// Blocks for the next in-order response to a previous
    /// [`send`](Self::send). Error layering as in [`call`](Self::call).
    pub fn recv(&mut self) -> io::Result<Result<Response, DecodeError>> {
        match read_frame_into(&mut self.stream, &mut self.frame)? {
            None => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed before responding"))
            }
            Some(Ok(())) => Ok(Response::from_bytes(&self.frame)),
            Some(Err(e)) => Ok(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{serve_pooled, PoolConfig};
    use crate::protocol::ServerStats;
    use crate::server::{ServeConfig, SketchServer};
    use std::net::TcpListener;

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let frame = Request::Stats.to_bytes();
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        write_frame(&mut wire, &frame).unwrap();
        let mut cursor = &wire[..];
        for _ in 0..2 {
            let got = read_frame(&mut cursor).unwrap().expect("frame").expect("well-formed");
            assert_eq!(got, frame);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF after the last frame");
    }

    #[test]
    fn unframeable_streams_refuse_without_panicking() {
        // Wrong magic.
        let mut junk = &b"NOTAFRAMEATALL!!"[..];
        assert!(matches!(read_frame(&mut junk).unwrap(), Some(Err(DecodeError::BadMagic(_)))));
        // A declared body length over the transport cap.
        let mut frame = SNAPSHOT_MAGIC.to_le_bytes().to_vec();
        frame.extend_from_slice(&64u16.to_le_bytes());
        frame.extend_from_slice(&1u16.to_le_bytes());
        frame.extend_from_slice(&[0xFF; 9]); // huge varint
        frame.push(0x01);
        let mut cursor = &frame[..];
        assert!(matches!(read_frame(&mut cursor).unwrap(), Some(Err(DecodeError::Corrupt(_)))));
        // Mid-frame EOF is a transport error, not a panic.
        let whole = Request::Stats.to_bytes();
        let mut cut = &whole[..whole.len() - 3];
        assert!(read_frame(&mut cut).is_err());
    }

    /// The incremental parser must agree with the blocking reader on
    /// every prefix: incomplete prefixes wait, the exact frame length is
    /// found, trailing bytes are left alone, and unframeable prefixes
    /// refuse with the same errors.
    #[test]
    fn frame_boundary_agrees_with_the_blocking_reader() {
        let frame = Request::Stats.to_bytes();
        for cut in 0..frame.len() {
            assert_eq!(frame_boundary(&frame[..cut]), Ok(None), "prefix of {cut} bytes");
        }
        assert_eq!(frame_boundary(&frame), Ok(Some(frame.len())));
        // A second frame's bytes behind the first are not consumed.
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        assert_eq!(frame_boundary(&two), Ok(Some(frame.len())));
        // Bad magic refuses as soon as 4 bytes are visible.
        assert!(matches!(frame_boundary(b"NOTAFRAME"), Err(DecodeError::BadMagic(_))));
        // Oversized declared length refuses like the blocking reader.
        let mut huge = SNAPSHOT_MAGIC.to_le_bytes().to_vec();
        huge.extend_from_slice(&64u16.to_le_bytes());
        huge.extend_from_slice(&1u16.to_le_bytes());
        huge.extend_from_slice(&[0xFF; 9]);
        huge.push(0x01);
        assert!(matches!(frame_boundary(&huge), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn tcp_end_to_end_stats_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap().to_string();
        let server = SketchServer::new(ServeConfig::default());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                serve_pooled(&server, &listener, &PoolConfig::default(), Some(1))
                    .expect("serve one")
            });
            let mut client = Client::connect(&addr, 2_000).expect("connect");
            let resp = client.call(&Request::Stats).expect("transport").expect("decode");
            assert_eq!(
                resp,
                Response::Stats(ServerStats {
                    budget_bits: ServeConfig::default().budget_bits,
                    max_in_flight: ServeConfig::default().max_in_flight as u64,
                    ..ServerStats::default()
                })
            );
        });
    }
}
