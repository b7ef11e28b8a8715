//! Flat trace (de)serialisation: [`encode`]/[`decode`] move a whole
//! bundle to and from `CTR1` bytes — fixed-width big-endian records behind
//! a small header. `std::fs::{read, write}` around them is the file
//! format `tracedump` speaks; traces too large to materialise stream
//! through [`crate::pack`] instead.

use crate::bundle::{TraceBundle, TraceMeta};
use crate::record::MsgRecord;
use stache::{BlockAddr, MsgType, NodeId, Role};
use std::error::Error;
use std::fmt;

/// Magic bytes identifying a binary trace.
const MAGIC: &[u8; 4] = b"CTR1";
/// The fixed encoded size of one record.
pub const RECORD_BYTES: usize = 26;

/// A malformed trace encountered while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input does not start with the trace magic.
    BadMagic,
    /// The input ended mid-structure.
    Truncated,
    /// A field held an out-of-range value.
    BadField {
        /// Which field was malformed.
        field: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a trace: bad magic"),
            DecodeError::Truncated => write!(f, "trace truncated"),
            DecodeError::BadField { field } => write!(f, "malformed trace field: {field}"),
        }
    }
}

impl Error for DecodeError {}

/// A bundle whose metadata does not fit the binary header's field widths.
///
/// The header stores the app-name length in a `u16` and the node count in
/// a `u32`; encoding used to cast unchecked, silently truncating oversized
/// values into a header that decodes to a *different* bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// `meta.app` is longer than a `u16` length field can record.
    AppTooLong {
        /// The offending length in bytes.
        len: usize,
    },
    /// `meta.nodes` exceeds the header's `u32` field.
    TooManyNodes {
        /// The offending node count.
        nodes: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::AppTooLong { len } => {
                write!(f, "app name of {len} bytes exceeds the u16 header field")
            }
            EncodeError::TooManyNodes { nodes } => {
                write!(f, "node count {nodes} exceeds the u32 header field")
            }
        }
    }
}

impl Error for EncodeError {}

/// Validates that a bundle's metadata fits the binary header fields.
///
/// # Errors
///
/// Returns the first field that would be truncated.
pub(crate) fn check_header_bounds(meta: &TraceMeta) -> Result<(), EncodeError> {
    if meta.app.len() > u16::MAX as usize {
        return Err(EncodeError::AppTooLong {
            len: meta.app.len(),
        });
    }
    if u32::try_from(meta.nodes).is_err() {
        return Err(EncodeError::TooManyNodes { nodes: meta.nodes });
    }
    Ok(())
}

/// A big-endian cursor over the input being decoded.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.data.len() < n {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.need(n)?;
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Encodes a bundle to the binary format.
///
/// # Errors
///
/// Returns an [`EncodeError`] when the metadata does not fit the header's
/// field widths (app name length in a `u16`, node count in a `u32`) —
/// previously those casts truncated silently.
pub fn encode(bundle: &TraceBundle) -> Result<Vec<u8>, EncodeError> {
    let meta = bundle.meta();
    check_header_bounds(meta)?;
    let mut buf = Vec::with_capacity(32 + meta.app.len() + bundle.len() * RECORD_BYTES);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(meta.app.len() as u16).to_be_bytes());
    buf.extend_from_slice(meta.app.as_bytes());
    buf.extend_from_slice(&(meta.nodes as u32).to_be_bytes());
    buf.extend_from_slice(&meta.iterations.to_be_bytes());
    buf.extend_from_slice(&(bundle.len() as u64).to_be_bytes());
    for r in bundle.records() {
        buf.extend_from_slice(&r.time_ns.to_be_bytes());
        buf.extend_from_slice(&r.node.raw().to_be_bytes());
        buf.push(match r.role {
            Role::Cache => 0,
            Role::Directory => 1,
        });
        buf.extend_from_slice(&r.block.number().to_be_bytes());
        buf.extend_from_slice(&r.sender.raw().to_be_bytes());
        buf.push(r.mtype.code());
        buf.extend_from_slice(&r.iteration.to_be_bytes());
    }
    Ok(buf)
}

/// Decodes a bundle from the binary format.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input; never panics.
pub fn decode(data: &[u8]) -> Result<TraceBundle, DecodeError> {
    let mut r = Reader::new(data);
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let app_len = r.u16()? as usize;
    let app = String::from_utf8(r.take(app_len)?.to_vec())
        .map_err(|_| DecodeError::BadField { field: "app" })?;
    let nodes = r.u32()? as usize;
    let iterations = r.u32()?;
    let count = r.u64()? as usize;

    let mut bundle = TraceBundle::new(TraceMeta::new(app, nodes, iterations));
    for _ in 0..count {
        r.need(RECORD_BYTES)?;
        let time_ns = r.u64()?;
        let node = NodeId::from_raw(r.u16()?).ok_or(DecodeError::BadField { field: "node" })?;
        let role = match r.u8()? {
            0 => Role::Cache,
            1 => Role::Directory,
            _ => return Err(DecodeError::BadField { field: "role" }),
        };
        let block = BlockAddr::new(r.u64()?);
        let sender = NodeId::from_raw(r.u16()?).ok_or(DecodeError::BadField { field: "sender" })?;
        let mtype = MsgType::from_code(r.u8()?).ok_or(DecodeError::BadField { field: "mtype" })?;
        let iteration = r.u32()?;
        bundle.push(MsgRecord {
            time_ns,
            node,
            role,
            block,
            sender,
            mtype,
            iteration,
        });
    }
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceBundle {
        let mut b = TraceBundle::new(TraceMeta::new("unit", 16, 5));
        for i in 0..20u64 {
            b.push(MsgRecord {
                time_ns: i * 40,
                node: NodeId::new((i % 16) as usize),
                role: if i % 2 == 0 {
                    Role::Cache
                } else {
                    Role::Directory
                },
                block: BlockAddr::new(i * 64),
                sender: NodeId::new(((i + 1) % 16) as usize),
                mtype: MsgType::from_code((i % 12) as u8).unwrap(),
                iteration: (i / 4) as u32,
            });
        }
        b
    }

    #[test]
    fn binary_roundtrip() {
        let b = sample();
        let encoded = encode(&b).unwrap();
        let decoded = decode(&encoded).unwrap();
        assert_eq!(b, decoded);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOPE"), Err(DecodeError::BadMagic));
        assert_eq!(decode(b"XX"), Err(DecodeError::Truncated));
    }

    #[test]
    fn truncated_records_rejected() {
        let b = sample();
        let encoded = encode(&b).unwrap();
        let cut = &encoded[..encoded.len() - 5];
        assert_eq!(decode(cut), Err(DecodeError::Truncated));
    }

    #[test]
    fn corrupt_mtype_rejected() {
        let b = sample();
        let mut bytes = encode(&b).unwrap().to_vec();
        // Last record's mtype byte sits 5 bytes from the end (mtype, iter u32).
        let idx = bytes.len() - 5;
        bytes[idx] = 200;
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::BadField { field: "mtype" })
        );
    }

    #[test]
    fn oversized_app_name_is_an_encode_error() {
        // Regression: `app.len() as u16` silently truncated, producing a
        // header whose length field disagreed with the bytes that follow.
        let long = "x".repeat(u16::MAX as usize + 1);
        let b = TraceBundle::new(TraceMeta::new(long, 2, 1));
        assert_eq!(
            encode(&b),
            Err(EncodeError::AppTooLong {
                len: u16::MAX as usize + 1
            })
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_node_count_is_an_encode_error() {
        // Regression: `nodes as u32` silently wrapped the count.
        let b = TraceBundle::new(TraceMeta::new("big", u32::MAX as usize + 1, 1));
        assert_eq!(
            encode(&b),
            Err(EncodeError::TooManyNodes {
                nodes: u32::MAX as usize + 1
            })
        );
    }

    #[test]
    fn encode_errors_render() {
        assert!(EncodeError::AppTooLong { len: 70_000 }
            .to_string()
            .contains("u16"));
        assert!(EncodeError::TooManyNodes { nodes: 1 }
            .to_string()
            .contains("u32"));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let b = TraceBundle::new(TraceMeta::new("empty", 2, 0));
        assert_eq!(decode(&encode(&b).unwrap()).unwrap(), b);
    }
}
