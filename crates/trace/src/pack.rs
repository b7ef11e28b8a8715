//! `pack` — the chunked, compressed, streaming on-disk trace format.
//!
//! The flat [`crate::codec`] format stores one fixed 26-byte record per
//! message; a billion-message `workloads::scale` run would be 26 GB and,
//! worse, the in-memory [`TraceBundle`] it decodes into would not fit in
//! RAM. This module stores the same records in independent fixed-size
//! **chunks** so writers stream records to disk as the simulator emits
//! them and readers replay them chunk-at-a-time with bounded memory
//! (peak RSS ≈ chunk size × decode workers, never the full trace).
//!
//! ## Frame layout
//!
//! ```text
//! file   := header chunk* index footer
//! header := "CPK1" version(u8) app_len(u16) app nodes(u32) iterations(u32)
//!           chunk_records(u32)
//! chunk  := "CHNK" records(u32) raw_len(u32) method(u8) comp_len(u32)
//!           crc32(u32)  payload[comp_len]
//! index  := "CIDX" count(u32) { offset(u64) records(u32) comp_len(u32)
//!           raw_len(u32) first_time(u64) }*
//! footer := total_records(u64) index_offset(u64) "CEND"
//! ```
//!
//! All integers are big-endian, matching the flat codec. The `crc32` is
//! over the *uncompressed* chunk payload, so corruption is detected
//! before malformed columns are parsed. The fields no checksum covers are
//! held against what they describe: the index entries' `records` must sum
//! to the footer's total and be `chunk_records` in every chunk but the
//! last (the writer flushes only full chunks until it finishes), and a
//! decoded chunk must start at its index entry's `first_time`. `method`
//! is [`METHOD_STORE`] or [`METHOD_LZ`]; a chunk whose compressed form
//! would be larger than its raw form is stored verbatim. Each chunk
//! carries its own column dictionaries, so chunks decode independently —
//! the property the parallel decode path relies on.
//!
//! ## Chunk payload (columnar)
//!
//! Within a chunk the record fields are stored as columns, each encoded
//! to exploit its own structure before the byte-level compressor runs:
//!
//! * **timestamps** — first value varint, then delta-of-delta zigzag
//!   varints (simulated clocks advance in near-constant steps, so the
//!   second difference is almost always a small integer);
//! * **block addresses** — zigzag-delta varints (workloads sweep block
//!   ranges, so consecutive records touch nearby addresses);
//! * **(node, role)**, **sender**, **mtype** — per-chunk dictionaries in
//!   first-appearance order, then one varint dictionary index per
//!   record (a chunk rarely sees more than a handful of distinct agents);
//! * **iterations** — zigzag-delta varints (monotone, mostly-zero
//!   deltas).
//!
//! The concatenated columns are then run through a hand-rolled LZ77
//! byte compressor (the workspace is dependency-free — no zstd): LZ4
//! block-style token streams of literal runs and `(offset, length)`
//! back-references with overlapping-copy support, which turns the long
//! zero runs the delta columns produce into a few bytes each.
//!
//! ## Example
//!
//! ```
//! use stache::{BlockAddr, MsgType, NodeId, Role};
//! use trace::pack::{pack_bundle, unpack_bundle};
//! use trace::{MsgRecord, TraceBundle, TraceMeta};
//!
//! let mut b = TraceBundle::new(TraceMeta::new("example", 4, 2));
//! for i in 0..100u64 {
//!     b.push(MsgRecord {
//!         time_ns: 40 * i,
//!         node: NodeId::new((i % 4) as usize),
//!         role: Role::Cache,
//!         block: BlockAddr::new(i / 2),
//!         sender: NodeId::new(((i + 1) % 4) as usize),
//!         mtype: MsgType::GetRoResponse,
//!         iteration: (i / 50) as u32,
//!     });
//! }
//! let bytes = pack_bundle(&b, 32).unwrap();
//! assert_eq!(unpack_bundle(&bytes).unwrap(), b);
//! ```

use crate::bundle::{TraceBundle, TraceMeta};
use crate::record::MsgRecord;
use stache::{BlockAddr, MsgType, NodeId, Role};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic.
const MAGIC: &[u8; 4] = b"CPK1";
/// Per-chunk magic.
const CHUNK_MAGIC: &[u8; 4] = b"CHNK";
/// Index magic.
const INDEX_MAGIC: &[u8; 4] = b"CIDX";
/// Footer magic.
const END_MAGIC: &[u8; 4] = b"CEND";
/// Format version.
const VERSION: u8 = 1;
/// Chunk payload stored verbatim.
pub const METHOD_STORE: u8 = 0;
/// Chunk payload LZ-compressed.
pub const METHOD_LZ: u8 = 1;
/// Fixed footer size: total_records + index_offset + magic.
const FOOTER_BYTES: u64 = 8 + 8 + 4;
/// Index entry size: offset + records + comp_len + raw_len + first_time.
const INDEX_ENTRY_BYTES: u64 = 8 + 4 + 4 + 4 + 8;
/// The flat codec's per-record cost, the compression-ratio baseline.
pub const FLAT_RECORD_BYTES: u64 = crate::codec::RECORD_BYTES as u64;

/// A failure while packing or unpacking a trace.
#[derive(Debug)]
pub enum PackError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// A magic marker was wrong — not a packed trace, or not the
    /// expected structure at this offset.
    BadMagic {
        /// Which marker was malformed.
        what: &'static str,
    },
    /// The input ended mid-structure.
    Truncated,
    /// A field held an out-of-range or internally inconsistent value.
    Corrupt {
        /// Which field or structure was malformed.
        what: &'static str,
    },
    /// A chunk's uncompressed payload failed its checksum.
    CrcMismatch {
        /// The zero-based chunk number.
        chunk: usize,
    },
    /// The bundle's metadata does not fit the header fields.
    Encode(crate::codec::EncodeError),
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Io(e) => write!(f, "packed trace i/o failed: {e}"),
            PackError::BadMagic { what } => write!(f, "not a packed trace: bad {what} magic"),
            PackError::Truncated => write!(f, "packed trace truncated"),
            PackError::Corrupt { what } => write!(f, "packed trace corrupt: {what}"),
            PackError::CrcMismatch { chunk } => {
                write!(f, "packed trace chunk {chunk} failed its CRC check")
            }
            PackError::Encode(e) => write!(f, "trace header unencodable: {e}"),
        }
    }
}

impl Error for PackError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PackError::Io(e) => Some(e),
            PackError::Encode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PackError {
    fn from(e: io::Error) -> Self {
        // EOF mid-structure is a malformed stream, not an I/O fault:
        // report it as the typed truncation every caller matches on.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            PackError::Truncated
        } else {
            PackError::Io(e)
        }
    }
}

impl From<crate::codec::EncodeError> for PackError {
    fn from(e: crate::codec::EncodeError) -> Self {
        PackError::Encode(e)
    }
}

// ---------------------------------------------------------------------
// Varint + zigzag primitives.
// ---------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, PackError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos).ok_or(PackError::Truncated)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(PackError::Corrupt { what: "varint" });
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(PackError::Corrupt { what: "varint" });
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, table-driven).
// ---------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

/// IEEE CRC-32 of a byte slice (the checksum each chunk carries).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Byte-level LZ compressor (LZ4-block-style, dependency-free).
// ---------------------------------------------------------------------

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = 0xFFFF;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn put_len(out: &mut Vec<u8>, mut rem: usize) {
    while rem >= 255 {
        out.push(255);
        rem -= 255;
    }
    out.push(rem as u8);
}

/// Compresses `src` with the hand-rolled LZ77 coder. The output is a
/// sequence of `(token, literals, offset, extension)` groups in the LZ4
/// block style; the final group is literals-only (no offset follows).
pub fn lz_compress(src: &[u8]) -> Vec<u8> {
    let n = src.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    let mut head = vec![u32::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + MIN_MATCH <= n {
        let h = hash4(src, i);
        let cand = head[h];
        head[h] = i as u32;
        let cand = cand as usize;
        if cand != u32::MAX as usize
            && i - cand <= MAX_OFFSET
            && src[cand..cand + MIN_MATCH] == src[i..i + MIN_MATCH]
        {
            let mut len = MIN_MATCH;
            while i + len < n && src[cand + len] == src[i + len] {
                len += 1;
            }
            let lit = i - lit_start;
            let token = ((lit.min(15) as u8) << 4) | ((len - MIN_MATCH).min(15) as u8);
            out.push(token);
            if lit >= 15 {
                put_len(&mut out, lit - 15);
            }
            out.extend_from_slice(&src[lit_start..i]);
            out.extend_from_slice(&((i - cand) as u16).to_be_bytes());
            if len - MIN_MATCH >= 15 {
                put_len(&mut out, len - MIN_MATCH - 15);
            }
            // Seed the hash table inside long matches at a coarse step so
            // repetitive columns still find nearby back-references.
            let end = i + len;
            let step = (len / 16).max(1);
            let mut j = i + step;
            while j + MIN_MATCH <= end.min(n - MIN_MATCH + 1) {
                head[hash4(src, j)] = j as u32;
                j += step;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    // Final literals-only group.
    let lit = n - lit_start;
    let token = (lit.min(15) as u8) << 4;
    out.push(token);
    if lit >= 15 {
        put_len(&mut out, lit - 15);
    }
    out.extend_from_slice(&src[lit_start..]);
    out
}

fn get_len(src: &[u8], pos: &mut usize, base: usize) -> Result<usize, PackError> {
    let mut len = base;
    if base == 15 {
        loop {
            let b = *src.get(*pos).ok_or(PackError::Truncated)?;
            *pos += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Decompresses an [`lz_compress`] stream into exactly `raw_len` bytes.
///
/// # Errors
///
/// Returns a typed [`PackError`] on any malformed input; never panics.
pub fn lz_decompress(src: &[u8], raw_len: usize) -> Result<Vec<u8>, PackError> {
    let mut out: Vec<u8> = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    loop {
        let token = *src.get(pos).ok_or(PackError::Truncated)?;
        pos += 1;
        let lit = get_len(src, &mut pos, (token >> 4) as usize)?;
        if pos + lit > src.len() {
            return Err(PackError::Truncated);
        }
        out.extend_from_slice(&src[pos..pos + lit]);
        pos += lit;
        if pos == src.len() {
            break;
        }
        if pos + 2 > src.len() {
            return Err(PackError::Truncated);
        }
        let offset = u16::from_be_bytes([src[pos], src[pos + 1]]) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(PackError::Corrupt { what: "lz offset" });
        }
        let mlen = get_len(src, &mut pos, (token & 0x0F) as usize)? + MIN_MATCH;
        if out.len() + mlen > raw_len {
            return Err(PackError::Corrupt { what: "lz length" });
        }
        // Byte-by-byte so overlapping (RLE-style) copies replicate.
        let start = out.len() - offset;
        for k in 0..mlen {
            let b = out[start + k];
            out.push(b);
        }
    }
    if out.len() != raw_len {
        return Err(PackError::Corrupt { what: "raw length" });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Columnar chunk codec.
// ---------------------------------------------------------------------

/// "Not in the dictionary yet" in a [`ChunkEncoder`] lookup table (above
/// any index: a chunk has at most `2 * MAX_NODES` = 8192 agents).
const UNSEEN: u16 = u16::MAX;

/// Encodes chunks into the uncompressed columnar payload.
///
/// The agent and sender dictionaries are in first-appearance order, and
/// each has a table from the 12-bit node id to the dictionary index, so a
/// record's lookup is one load whatever the node count (a scan of the
/// dictionary made packing a 1024-node trace 10x slower per record than a
/// 64-node one). The writer owns one encoder: the tables are built once,
/// and a chunk resets only the slots it filled.
#[derive(Debug)]
struct ChunkEncoder {
    agents: Vec<(u16, u8)>,
    senders: Vec<u16>,
    /// Index in `agents` of `(node, role)`, at `node * 2 + role`.
    agent_at: Vec<u16>,
    /// Index in `senders` of `node`, at `node`.
    sender_at: Vec<u16>,
}

impl ChunkEncoder {
    fn new() -> Self {
        ChunkEncoder {
            agents: Vec::new(),
            senders: Vec::new(),
            agent_at: vec![UNSEEN; 2 * stache::ids::MAX_NODES],
            sender_at: vec![UNSEEN; stache::ids::MAX_NODES],
        }
    }

    fn encode(&mut self, records: &[MsgRecord]) -> Vec<u8> {
        assert!(!records.is_empty(), "chunks are never empty");
        let n = records.len();
        let mut out = Vec::with_capacity(n * 6);

        // Column 1: timestamps, delta-of-delta (wrapping, lossless).
        put_varint(&mut out, records[0].time_ns);
        let mut prev_time = records[0].time_ns;
        let mut prev_delta = 0u64;
        for r in &records[1..] {
            let delta = r.time_ns.wrapping_sub(prev_time);
            let dod = delta.wrapping_sub(prev_delta);
            put_varint(&mut out, zigzag(dod as i64));
            prev_time = r.time_ns;
            prev_delta = delta;
        }

        // Dictionaries, first-appearance order.
        let mut mtypes: Vec<u8> = Vec::new();
        let mut agent_idx = Vec::with_capacity(n);
        let mut sender_idx = Vec::with_capacity(n);
        let mut mtype_idx = Vec::with_capacity(n);
        for r in records {
            let role = match r.role {
                Role::Cache => 0u8,
                Role::Directory => 1u8,
            };
            let slot = &mut self.agent_at[r.node.index() * 2 + usize::from(role)];
            if *slot == UNSEEN {
                *slot = self.agents.len() as u16;
                self.agents.push((r.node.raw(), role));
            }
            agent_idx.push(u64::from(*slot));
            let slot = &mut self.sender_at[r.sender.index()];
            if *slot == UNSEEN {
                *slot = self.senders.len() as u16;
                self.senders.push(r.sender.raw());
            }
            sender_idx.push(u64::from(*slot));
            let m = r.mtype.code();
            let mi = mtypes.iter().position(|&x| x == m).unwrap_or_else(|| {
                mtypes.push(m);
                mtypes.len() - 1
            });
            mtype_idx.push(mi as u64);
        }
        put_varint(&mut out, self.agents.len() as u64);
        for (node, role) in self.agents.drain(..) {
            put_varint(&mut out, u64::from(node));
            out.push(role);
            self.agent_at[usize::from(node) * 2 + usize::from(role)] = UNSEEN;
        }
        put_varint(&mut out, self.senders.len() as u64);
        for s in self.senders.drain(..) {
            put_varint(&mut out, u64::from(s));
            self.sender_at[usize::from(s)] = UNSEEN;
        }
        put_varint(&mut out, mtypes.len() as u64);
        out.extend_from_slice(&mtypes);

        // Index columns, then delta columns, each contiguous.
        for &i in &agent_idx {
            put_varint(&mut out, i);
        }
        let mut prev_block = 0u64;
        for r in records {
            let delta = r.block.number().wrapping_sub(prev_block);
            put_varint(&mut out, zigzag(delta as i64));
            prev_block = r.block.number();
        }
        for &i in &sender_idx {
            put_varint(&mut out, i);
        }
        for &i in &mtype_idx {
            put_varint(&mut out, i);
        }
        let mut prev_iter = 0u32;
        for r in records {
            let delta = r.iteration.wrapping_sub(prev_iter);
            put_varint(&mut out, zigzag(i64::from(delta as i32)));
            prev_iter = r.iteration;
        }
        out
    }
}

/// Decodes one chunk's uncompressed columnar payload.
fn decode_chunk_raw(data: &[u8], n: usize) -> Result<Vec<MsgRecord>, PackError> {
    if n == 0 {
        return Err(PackError::Corrupt {
            what: "empty chunk",
        });
    }
    let mut pos = 0usize;

    let mut times = Vec::with_capacity(n);
    let first = get_varint(data, &mut pos)?;
    times.push(first);
    let mut prev_time = first;
    let mut prev_delta = 0u64;
    for _ in 1..n {
        let dod = unzigzag(get_varint(data, &mut pos)?) as u64;
        let delta = prev_delta.wrapping_add(dod);
        prev_time = prev_time.wrapping_add(delta);
        prev_delta = delta;
        times.push(prev_time);
    }

    let agent_count = get_varint(data, &mut pos)? as usize;
    if agent_count == 0 || agent_count > n {
        return Err(PackError::Corrupt { what: "agent dict" });
    }
    let mut agents = Vec::with_capacity(agent_count);
    for _ in 0..agent_count {
        let raw = get_varint(data, &mut pos)?;
        let node = u16::try_from(raw)
            .ok()
            .and_then(NodeId::from_raw)
            .ok_or(PackError::Corrupt { what: "node" })?;
        let role = match *data.get(pos).ok_or(PackError::Truncated)? {
            0 => Role::Cache,
            1 => Role::Directory,
            _ => return Err(PackError::Corrupt { what: "role" }),
        };
        pos += 1;
        agents.push((node, role));
    }
    let sender_count = get_varint(data, &mut pos)? as usize;
    if sender_count == 0 || sender_count > n {
        return Err(PackError::Corrupt {
            what: "sender dict",
        });
    }
    let mut senders = Vec::with_capacity(sender_count);
    for _ in 0..sender_count {
        let raw = get_varint(data, &mut pos)?;
        let node = u16::try_from(raw)
            .ok()
            .and_then(NodeId::from_raw)
            .ok_or(PackError::Corrupt { what: "sender" })?;
        senders.push(node);
    }
    let mtype_count = get_varint(data, &mut pos)? as usize;
    if mtype_count == 0 || mtype_count > n {
        return Err(PackError::Corrupt { what: "mtype dict" });
    }
    let mut mtypes = Vec::with_capacity(mtype_count);
    for _ in 0..mtype_count {
        let code = *data.get(pos).ok_or(PackError::Truncated)?;
        pos += 1;
        mtypes.push(MsgType::from_code(code).ok_or(PackError::Corrupt { what: "mtype" })?);
    }

    let mut agent_idx = Vec::with_capacity(n);
    for _ in 0..n {
        let i = get_varint(data, &mut pos)? as usize;
        if i >= agent_count {
            return Err(PackError::Corrupt { what: "agent idx" });
        }
        agent_idx.push(i);
    }
    let mut blocks = Vec::with_capacity(n);
    let mut prev_block = 0u64;
    for _ in 0..n {
        let delta = unzigzag(get_varint(data, &mut pos)?) as u64;
        prev_block = prev_block.wrapping_add(delta);
        blocks.push(prev_block);
    }
    let mut sender_idx = Vec::with_capacity(n);
    for _ in 0..n {
        let i = get_varint(data, &mut pos)? as usize;
        if i >= sender_count {
            return Err(PackError::Corrupt { what: "sender idx" });
        }
        sender_idx.push(i);
    }
    let mut mtype_idx = Vec::with_capacity(n);
    for _ in 0..n {
        let i = get_varint(data, &mut pos)? as usize;
        if i >= mtype_count {
            return Err(PackError::Corrupt { what: "mtype idx" });
        }
        mtype_idx.push(i);
    }
    let mut records = Vec::with_capacity(n);
    let mut prev_iter = 0u32;
    for i in 0..n {
        let delta = unzigzag(get_varint(data, &mut pos)?) as i32 as u32;
        prev_iter = prev_iter.wrapping_add(delta);
        let (node, role) = agents[agent_idx[i]];
        records.push(MsgRecord {
            time_ns: times[i],
            node,
            role,
            block: BlockAddr::new(blocks[i]),
            sender: senders[sender_idx[i]],
            mtype: mtypes[mtype_idx[i]],
            iteration: prev_iter,
        });
    }
    if pos != data.len() {
        return Err(PackError::Corrupt {
            what: "chunk trailing bytes",
        });
    }
    Ok(records)
}

// ---------------------------------------------------------------------
// Chunks on the wire.
// ---------------------------------------------------------------------

/// One chunk's index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// File offset of the chunk's `CHNK` marker.
    pub offset: u64,
    /// Records in the chunk.
    pub records: u32,
    /// Compressed payload bytes.
    pub comp_len: u32,
    /// Uncompressed payload bytes.
    pub raw_len: u32,
    /// Timestamp of the chunk's first record (coarse time index).
    pub first_time: u64,
}

/// A chunk as read from disk, before decoding: the decode side is pure
/// (`Send + Sync` inputs), so callers can fan chunk decodes out over a
/// worker pool while a single reader thread does the I/O.
#[derive(Debug, Clone)]
pub struct PackedChunk {
    /// Records in the chunk.
    pub records: u32,
    /// Uncompressed payload length.
    pub raw_len: u32,
    /// Compression method ([`METHOD_STORE`] or [`METHOD_LZ`]).
    pub method: u8,
    /// Expected CRC-32 of the uncompressed payload.
    pub crc: u32,
    /// The timestamp the index gives for the chunk's first record.
    pub first_time: u64,
    /// The on-disk payload (compressed when `method == METHOD_LZ`).
    pub payload: Vec<u8>,
    /// Zero-based chunk number (for error attribution).
    pub number: usize,
}

impl PackedChunk {
    /// Decompresses, checks the CRC, and decodes the records.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PackError`] on corruption; never panics.
    pub fn decode(&self) -> Result<Vec<MsgRecord>, PackError> {
        let raw = match self.method {
            METHOD_STORE => {
                if self.payload.len() != self.raw_len as usize {
                    return Err(PackError::Corrupt { what: "stored len" });
                }
                self.payload.clone()
            }
            METHOD_LZ => lz_decompress(&self.payload, self.raw_len as usize)?,
            _ => return Err(PackError::Corrupt { what: "method" }),
        };
        if crc32(&raw) != self.crc {
            return Err(PackError::CrcMismatch { chunk: self.number });
        }
        let records = decode_chunk_raw(&raw, self.records as usize)?;
        // The index entry is covered by no checksum; the records are.
        if records[0].time_ns != self.first_time {
            return Err(PackError::Corrupt { what: "first_time" });
        }
        Ok(records)
    }
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

/// Deterministic byte totals of one packing pass, for the
/// `trace.pack.*` metrics and the compression-ratio report. Wall-clock
/// timings are deliberately *not* here — they live with the bench
/// harness so obs snapshots stay byte-stable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackStats {
    /// Records written.
    pub records: u64,
    /// Chunks written.
    pub chunks: u64,
    /// What the flat 26-byte codec would have used for the records.
    pub flat_bytes: u64,
    /// Total packed file size (header + chunks + index + footer).
    pub packed_bytes: u64,
    /// Uncompressed columnar payload bytes (before LZ).
    pub raw_payload_bytes: u64,
    /// Compressed payload bytes (after LZ).
    pub comp_payload_bytes: u64,
}

impl PackStats {
    /// Compression ratio vs the flat codec (flat / packed); 0 when empty.
    pub fn ratio(&self) -> f64 {
        if self.packed_bytes == 0 {
            return 0.0;
        }
        self.flat_bytes as f64 / self.packed_bytes as f64
    }

    /// Exports the deterministic totals under `trace.pack.*`.
    pub fn export_obs(&self, snap: &mut obs::Snapshot) {
        snap.counter("trace.pack.records", self.records);
        snap.counter("trace.pack.chunks", self.chunks);
        snap.counter("trace.pack.bytes_in", self.flat_bytes);
        snap.counter("trace.pack.bytes_out", self.packed_bytes);
        snap.counter("trace.pack.raw_payload_bytes", self.raw_payload_bytes);
        snap.counter("trace.pack.comp_payload_bytes", self.comp_payload_bytes);
        snap.gauge("trace.pack.ratio", self.ratio());
    }
}

/// Streams records into a packed trace without ever holding more than
/// one chunk's worth in memory.
#[derive(Debug)]
pub struct PackedTraceWriter<W: Write + Seek> {
    sink: W,
    chunk_records: u32,
    buf: Vec<MsgRecord>,
    encoder: ChunkEncoder,
    index: Vec<ChunkInfo>,
    stats: PackStats,
    offset: u64,
    /// The kind of the sink error that spent the writer, if one has: the
    /// file has a hole where a chunk failed, so nothing more is written.
    failed: Option<io::ErrorKind>,
}

impl<W: Write + Seek> PackedTraceWriter<W> {
    /// Starts a packed trace: writes the header.
    ///
    /// # Errors
    ///
    /// Rejects metadata that does not fit the header fields and
    /// propagates sink errors.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_records` is zero.
    pub fn new(mut sink: W, meta: &TraceMeta, chunk_records: u32) -> Result<Self, PackError> {
        assert!(chunk_records > 0, "chunk_records must be nonzero");
        crate::codec::check_header_bounds(meta)?;
        let mut header = Vec::with_capacity(32 + meta.app.len());
        header.extend_from_slice(MAGIC);
        header.push(VERSION);
        header.extend_from_slice(&(meta.app.len() as u16).to_be_bytes());
        header.extend_from_slice(meta.app.as_bytes());
        header.extend_from_slice(&(meta.nodes as u32).to_be_bytes());
        header.extend_from_slice(&meta.iterations.to_be_bytes());
        header.extend_from_slice(&chunk_records.to_be_bytes());
        sink.write_all(&header)?;
        Ok(PackedTraceWriter {
            sink,
            chunk_records,
            buf: Vec::with_capacity(chunk_records as usize),
            encoder: ChunkEncoder::new(),
            index: Vec::new(),
            stats: PackStats::default(),
            offset: header.len() as u64,
            failed: None,
        })
    }

    /// Appends one record, flushing a chunk when the buffer fills.
    ///
    /// # Errors
    ///
    /// Propagates sink errors; after one, every call fails.
    pub fn push(&mut self, r: MsgRecord) -> Result<(), PackError> {
        self.live()?;
        self.buf.push(r);
        if self.buf.len() == self.chunk_records as usize {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends a batch of records.
    ///
    /// # Errors
    ///
    /// Propagates sink errors; after one, every call fails.
    pub fn push_all(&mut self, records: &[MsgRecord]) -> Result<(), PackError> {
        for r in records {
            self.push(*r)?;
        }
        Ok(())
    }

    /// An error if a sink error has spent the writer.
    fn live(&self) -> Result<(), PackError> {
        match self.failed {
            Some(kind) => Err(PackError::Io(io::Error::new(
                kind,
                "an earlier write of this packed trace failed",
            ))),
            None => Ok(()),
        }
    }

    fn flush_chunk(&mut self) -> Result<(), PackError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let raw = self.encoder.encode(&self.buf);
        let crc = crc32(&raw);
        let lz = lz_compress(&raw);
        let (method, payload) = if lz.len() < raw.len() {
            (METHOD_LZ, &lz)
        } else {
            (METHOD_STORE, &raw)
        };
        let mut head = [0u8; 21];
        head[0..4].copy_from_slice(CHUNK_MAGIC);
        head[4..8].copy_from_slice(&(self.buf.len() as u32).to_be_bytes());
        head[8..12].copy_from_slice(&(raw.len() as u32).to_be_bytes());
        head[12] = method;
        head[13..17].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        head[17..21].copy_from_slice(&crc.to_be_bytes());
        let written = self.sink.write_all(&head);
        if let Err(e) = written.and_then(|()| self.sink.write_all(payload)) {
            self.failed = Some(e.kind());
            return Err(e.into());
        }
        self.index.push(ChunkInfo {
            offset: self.offset,
            records: self.buf.len() as u32,
            comp_len: payload.len() as u32,
            raw_len: raw.len() as u32,
            first_time: self.buf[0].time_ns,
        });
        self.offset += (head.len() + payload.len()) as u64;
        self.stats.records += self.buf.len() as u64;
        self.stats.chunks += 1;
        self.stats.flat_bytes += self.buf.len() as u64 * FLAT_RECORD_BYTES;
        self.stats.raw_payload_bytes += raw.len() as u64;
        self.stats.comp_payload_bytes += payload.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the trailing partial chunk, writes the index and footer,
    /// and returns the sink plus the byte totals.
    ///
    /// # Errors
    ///
    /// Propagates sink errors, and fails without writing if an earlier
    /// one spent the writer.
    pub fn finish(mut self) -> Result<(W, PackStats), PackError> {
        self.live()?;
        self.flush_chunk()?;
        let index_offset = self.offset;
        let mut tail = Vec::with_capacity(8 + self.index.len() * INDEX_ENTRY_BYTES as usize + 20);
        tail.extend_from_slice(INDEX_MAGIC);
        tail.extend_from_slice(&(self.index.len() as u32).to_be_bytes());
        for c in &self.index {
            tail.extend_from_slice(&c.offset.to_be_bytes());
            tail.extend_from_slice(&c.records.to_be_bytes());
            tail.extend_from_slice(&c.comp_len.to_be_bytes());
            tail.extend_from_slice(&c.raw_len.to_be_bytes());
            tail.extend_from_slice(&c.first_time.to_be_bytes());
        }
        tail.extend_from_slice(&self.stats.records.to_be_bytes());
        tail.extend_from_slice(&index_offset.to_be_bytes());
        tail.extend_from_slice(END_MAGIC);
        self.sink.write_all(&tail)?;
        self.sink.flush()?;
        self.stats.packed_bytes = self.offset + tail.len() as u64;
        Ok((self.sink, self.stats))
    }
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

/// Reads a packed trace: sequential chunk iteration plus random chunk
/// access through the index.
#[derive(Debug)]
pub struct PackedTraceReader<R: Read + Seek> {
    source: R,
    meta: TraceMeta,
    chunk_records: u32,
    total_records: u64,
    index: Vec<ChunkInfo>,
}

impl PackedTraceReader<std::io::BufReader<std::fs::File>> {
    /// Opens a packed trace file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and malformed content.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PackError> {
        let file = std::fs::File::open(path).map_err(PackError::Io)?;
        PackedTraceReader::new(std::io::BufReader::new(file))
    }
}

impl<R: Read + Seek> PackedTraceReader<R> {
    /// Validates the header, footer, and chunk index.
    ///
    /// # Errors
    ///
    /// Fails with a typed [`PackError`] on any malformed structure.
    pub fn new(mut source: R) -> Result<Self, PackError> {
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(PackError::BadMagic { what: "file" });
        }
        let mut b1 = [0u8; 1];
        source.read_exact(&mut b1)?;
        if b1[0] != VERSION {
            return Err(PackError::Corrupt { what: "version" });
        }
        let mut b2 = [0u8; 2];
        source.read_exact(&mut b2)?;
        let app_len = u16::from_be_bytes(b2) as usize;
        let mut app = vec![0u8; app_len];
        source.read_exact(&mut app)?;
        let app = String::from_utf8(app).map_err(|_| PackError::Corrupt { what: "app" })?;
        let mut b4 = [0u8; 4];
        source.read_exact(&mut b4)?;
        let nodes = u32::from_be_bytes(b4) as usize;
        source.read_exact(&mut b4)?;
        let iterations = u32::from_be_bytes(b4);
        source.read_exact(&mut b4)?;
        let chunk_records = u32::from_be_bytes(b4);
        if chunk_records == 0 {
            return Err(PackError::Corrupt {
                what: "chunk_records",
            });
        }
        let header_end = source.stream_position()?;

        let file_len = source.seek(SeekFrom::End(0))?;
        if file_len < header_end + FOOTER_BYTES {
            return Err(PackError::Truncated);
        }
        source.seek(SeekFrom::End(-(FOOTER_BYTES as i64)))?;
        let mut footer = [0u8; FOOTER_BYTES as usize];
        source.read_exact(&mut footer)?;
        if &footer[16..20] != END_MAGIC {
            return Err(PackError::BadMagic { what: "footer" });
        }
        let total_records = u64::from_be_bytes(footer[0..8].try_into().expect("8 bytes"));
        let index_offset = u64::from_be_bytes(footer[8..16].try_into().expect("8 bytes"));
        if index_offset < header_end || index_offset > file_len - FOOTER_BYTES {
            return Err(PackError::Corrupt {
                what: "index offset",
            });
        }
        source.seek(SeekFrom::Start(index_offset))?;
        source.read_exact(&mut magic)?;
        if &magic != INDEX_MAGIC {
            return Err(PackError::BadMagic { what: "index" });
        }
        source.read_exact(&mut b4)?;
        let count = u32::from_be_bytes(b4) as usize;
        let index_bytes = (file_len - FOOTER_BYTES).saturating_sub(index_offset + 8);
        if count as u64 * INDEX_ENTRY_BYTES != index_bytes {
            return Err(PackError::Corrupt {
                what: "index length",
            });
        }
        let mut index = Vec::with_capacity(count);
        let mut entry = [0u8; INDEX_ENTRY_BYTES as usize];
        let mut sum = 0u64;
        for _ in 0..count {
            source.read_exact(&mut entry)?;
            let info = ChunkInfo {
                offset: u64::from_be_bytes(entry[0..8].try_into().expect("8 bytes")),
                records: u32::from_be_bytes(entry[8..12].try_into().expect("4 bytes")),
                comp_len: u32::from_be_bytes(entry[12..16].try_into().expect("4 bytes")),
                raw_len: u32::from_be_bytes(entry[16..20].try_into().expect("4 bytes")),
                first_time: u64::from_be_bytes(entry[20..28].try_into().expect("8 bytes")),
            };
            if info.offset < header_end || info.offset >= index_offset || info.records == 0 {
                return Err(PackError::Corrupt {
                    what: "index entry",
                });
            }
            sum += u64::from(info.records);
            index.push(info);
        }
        if sum != total_records {
            return Err(PackError::Corrupt {
                what: "record count",
            });
        }
        // The header's chunk size is covered by no checksum, but the
        // writer flushes only full chunks until `finish` flushes the rest.
        if let Some((last, full)) = index.split_last() {
            if last.records > chunk_records || full.iter().any(|c| c.records != chunk_records) {
                return Err(PackError::Corrupt {
                    what: "chunk_records",
                });
            }
        }
        Ok(PackedTraceReader {
            source,
            meta: TraceMeta::new(app, nodes, iterations),
            chunk_records,
            total_records,
            index,
        })
    }

    /// The trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Records per full chunk.
    pub fn chunk_records(&self) -> u32 {
        self.chunk_records
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// Total records in the trace.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// The chunk index.
    pub fn index(&self) -> &[ChunkInfo] {
        &self.index
    }

    /// Reads chunk `i`'s bytes without decoding (the parallel-decode
    /// split: I/O here, [`PackedChunk::decode`] on any thread).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a malformed chunk header.
    pub fn read_chunk_raw(&mut self, i: usize) -> Result<PackedChunk, PackError> {
        let info = *self.index.get(i).ok_or(PackError::Corrupt {
            what: "chunk number",
        })?;
        self.source.seek(SeekFrom::Start(info.offset))?;
        let mut head = [0u8; 21];
        self.source.read_exact(&mut head)?;
        if &head[0..4] != CHUNK_MAGIC {
            return Err(PackError::BadMagic { what: "chunk" });
        }
        let records = u32::from_be_bytes(head[4..8].try_into().expect("4 bytes"));
        let raw_len = u32::from_be_bytes(head[8..12].try_into().expect("4 bytes"));
        let method = head[12];
        let comp_len = u32::from_be_bytes(head[13..17].try_into().expect("4 bytes"));
        let crc = u32::from_be_bytes(head[17..21].try_into().expect("4 bytes"));
        if records != info.records || comp_len != info.comp_len || raw_len != info.raw_len {
            return Err(PackError::Corrupt {
                what: "chunk header",
            });
        }
        let mut payload = vec![0u8; comp_len as usize];
        self.source.read_exact(&mut payload)?;
        Ok(PackedChunk {
            records,
            raw_len,
            method,
            crc,
            first_time: info.first_time,
            payload,
            number: i,
        })
    }

    /// Reads and decodes chunk `i`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or corruption.
    pub fn read_chunk(&mut self, i: usize) -> Result<Vec<MsgRecord>, PackError> {
        self.read_chunk_raw(i)?.decode()
    }

    /// Streams every chunk through `f` in order — the bounded-memory
    /// replay path: at most one decoded chunk is live at a time.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or corruption; `f` is not called again after
    /// an error.
    pub fn for_each_chunk(&mut self, mut f: impl FnMut(&[MsgRecord])) -> Result<(), PackError> {
        for i in 0..self.index.len() {
            let records = self.read_chunk(i)?;
            f(&records);
        }
        Ok(())
    }

    /// Drains the whole trace into a bundle (tests and small traces; the
    /// scale path should use [`for_each_chunk`](Self::for_each_chunk)).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or corruption.
    pub fn read_bundle(&mut self) -> Result<TraceBundle, PackError> {
        let mut bundle = TraceBundle::new(self.meta.clone());
        self.for_each_chunk(|records| bundle.extend_records(records.iter().copied()))?;
        Ok(bundle)
    }
}

// ---------------------------------------------------------------------
// One-shot helpers.
// ---------------------------------------------------------------------

/// Packs a bundle into an in-memory packed trace.
///
/// # Errors
///
/// Fails when the metadata does not fit the header fields.
pub fn pack_bundle(bundle: &TraceBundle, chunk_records: u32) -> Result<Vec<u8>, PackError> {
    let cursor = std::io::Cursor::new(Vec::new());
    let mut w = PackedTraceWriter::new(cursor, bundle.meta(), chunk_records)?;
    w.push_all(bundle.records())?;
    let (cursor, _) = w.finish()?;
    Ok(cursor.into_inner())
}

/// Packs a bundle and returns the byte totals alongside the bytes.
///
/// # Errors
///
/// Fails when the metadata does not fit the header fields.
pub fn pack_bundle_with_stats(
    bundle: &TraceBundle,
    chunk_records: u32,
) -> Result<(Vec<u8>, PackStats), PackError> {
    let cursor = std::io::Cursor::new(Vec::new());
    let mut w = PackedTraceWriter::new(cursor, bundle.meta(), chunk_records)?;
    w.push_all(bundle.records())?;
    let (cursor, stats) = w.finish()?;
    Ok((cursor.into_inner(), stats))
}

/// Unpacks an in-memory packed trace into a bundle.
///
/// # Errors
///
/// Fails with a typed [`PackError`] on malformed input; never panics.
pub fn unpack_bundle(bytes: &[u8]) -> Result<TraceBundle, PackError> {
    PackedTraceReader::new(std::io::Cursor::new(bytes))?.read_bundle()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> MsgRecord {
        MsgRecord {
            time_ns: 40 * i + (i % 3),
            node: NodeId::new((i % 16) as usize),
            role: if i.is_multiple_of(2) {
                Role::Cache
            } else {
                Role::Directory
            },
            block: BlockAddr::new((i / 2) * 64),
            sender: NodeId::new(((i + 5) % 16) as usize),
            mtype: MsgType::from_code((i % 12) as u8).unwrap(),
            iteration: (i / 40) as u32,
        }
    }

    fn sample(n: u64) -> TraceBundle {
        let mut b = TraceBundle::new(TraceMeta::new("pack-test", 16, 8));
        for i in 0..n {
            b.push(rec(i));
        }
        b
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_overlong_is_corrupt() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert!(matches!(
            get_varint(&buf, &mut pos),
            Err(PackError::Corrupt { what: "varint" })
        ));
        let mut pos = 0;
        assert!(matches!(
            get_varint(&[0x80], &mut pos),
            Err(PackError::Truncated)
        ));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn lz_roundtrip_on_mixed_data() {
        let mut data = Vec::new();
        for i in 0..4000u32 {
            data.push((i % 7) as u8);
            if i % 5 == 0 {
                data.extend_from_slice(b"repeated-motif-");
            }
        }
        let comp = lz_compress(&data);
        assert!(comp.len() < data.len(), "repetitive input must shrink");
        assert_eq!(lz_decompress(&comp, data.len()).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip_on_incompressible_and_tiny_data() {
        // A de-correlated byte stream (xorshift) with no 4-byte repeats.
        let mut x = 0x9E37_79B9u32;
        let data: Vec<u8> = (0..512)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let comp = lz_compress(&data);
        assert_eq!(lz_decompress(&comp, data.len()).unwrap(), data);
        for n in 0..8 {
            let tiny = &data[..n];
            let c = lz_compress(tiny);
            assert_eq!(lz_decompress(&c, n).unwrap(), tiny);
        }
    }

    #[test]
    fn lz_decompress_rejects_corruption() {
        let data = vec![7u8; 300];
        let comp = lz_compress(&data);
        // Truncation.
        assert!(lz_decompress(&comp[..comp.len() - 1], data.len()).is_err());
        // Wrong expected length.
        assert!(lz_decompress(&comp, data.len() + 1).is_err());
        // A zero offset is never valid.
        let bad = vec![0x00u8, 0x00, 0x00];
        assert!(matches!(
            lz_decompress(&bad, 100),
            Err(PackError::Corrupt { what: "lz offset" })
        ));
    }

    #[test]
    fn packed_roundtrip_various_chunk_sizes() {
        for n in [1u64, 2, 31, 32, 33, 500] {
            let b = sample(n);
            for chunk in [1u32, 7, 32, 4096] {
                let bytes = pack_bundle(&b, chunk).unwrap();
                let decoded = unpack_bundle(&bytes).unwrap();
                assert_eq!(decoded, b, "n={n} chunk={chunk}");
            }
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let b = TraceBundle::new(TraceMeta::new("empty", 2, 0));
        let bytes = pack_bundle(&b, 64).unwrap();
        let mut r = PackedTraceReader::new(std::io::Cursor::new(&bytes[..])).unwrap();
        assert_eq!(r.chunk_count(), 0);
        assert_eq!(r.total_records(), 0);
        assert_eq!(r.read_bundle().unwrap(), b);
    }

    #[test]
    fn compresses_structured_traces_at_least_2x() {
        let b = sample(20_000);
        let (bytes, stats) = pack_bundle_with_stats(&b, 4096).unwrap();
        assert_eq!(stats.packed_bytes, bytes.len() as u64);
        assert_eq!(stats.flat_bytes, 20_000 * FLAT_RECORD_BYTES);
        assert!(
            stats.ratio() >= 2.0,
            "structured trace must compress >= 2x, got {:.2}",
            stats.ratio()
        );
    }

    #[test]
    fn random_chunk_access_matches_sequential() {
        let b = sample(1000);
        let bytes = pack_bundle(&b, 128).unwrap();
        let mut r = PackedTraceReader::new(std::io::Cursor::new(&bytes[..])).unwrap();
        assert_eq!(r.chunk_count(), 8);
        // Read out of order; each chunk decodes independently.
        for i in [5usize, 0, 7, 3] {
            let records = r.read_chunk(i).unwrap();
            let lo = i * 128;
            let hi = (lo + records.len()).min(1000);
            assert_eq!(&records[..], &b.records()[lo..hi], "chunk {i}");
            assert_eq!(r.index()[i].first_time, b.records()[lo].time_ns);
        }
    }

    #[test]
    fn parallel_style_decode_from_raw_chunks() {
        let b = sample(600);
        let bytes = pack_bundle(&b, 100).unwrap();
        let mut r = PackedTraceReader::new(std::io::Cursor::new(&bytes[..])).unwrap();
        let raw: Vec<PackedChunk> = (0..r.chunk_count())
            .map(|i| r.read_chunk_raw(i).unwrap())
            .collect();
        // Decode on worker threads (the I/O-free half of the split).
        let decoded: Vec<Vec<MsgRecord>> = std::thread::scope(|s| {
            let handles: Vec<_> = raw
                .iter()
                .map(|c| s.spawn(move || c.decode().unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let flat: Vec<MsgRecord> = decoded.into_iter().flatten().collect();
        assert_eq!(&flat[..], b.records());
    }

    #[test]
    fn bad_magic_everywhere_is_typed() {
        assert!(matches!(
            unpack_bundle(b"NOPE"),
            Err(PackError::BadMagic { what: "file" })
        ));
        assert!(matches!(unpack_bundle(b"CP"), Err(PackError::Truncated)));
        let b = sample(50);
        let mut bytes = pack_bundle(&b, 16).unwrap();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(b"XXXX");
        assert!(matches!(
            unpack_bundle(&bytes),
            Err(PackError::BadMagic { what: "footer" })
        ));
    }

    #[test]
    fn truncated_file_is_typed() {
        let b = sample(50);
        let bytes = pack_bundle(&b, 16).unwrap();
        for cut in [3usize, 10, bytes.len() - 3] {
            let err = unpack_bundle(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    PackError::Truncated | PackError::Corrupt { .. } | PackError::BadMagic { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_chunk_payload_fails_crc() {
        let b = sample(200);
        let mut bytes = pack_bundle(&b, 64).unwrap();
        let r = PackedTraceReader::new(std::io::Cursor::new(&bytes[..])).unwrap();
        let info = r.index()[1];
        // Flip a byte in the middle of chunk 1's payload.
        let at = info.offset as usize + 21 + info.comp_len as usize / 2;
        bytes[at] ^= 0xA5;
        let mut r = PackedTraceReader::new(std::io::Cursor::new(&bytes[..])).unwrap();
        let err = r.read_chunk(1).unwrap_err();
        assert!(
            matches!(
                err,
                PackError::CrcMismatch { chunk: 1 }
                    | PackError::Corrupt { .. }
                    | PackError::Truncated
            ),
            "got {err:?}"
        );
        // Chunk 0 still decodes: chunks are independent.
        assert_eq!(&r.read_chunk(0).unwrap()[..], &b.records()[..64]);
    }

    #[test]
    fn corrupt_length_fields_are_typed() {
        let b = sample(100);
        let bytes = pack_bundle(&b, 32).unwrap();
        // Oversize the index count.
        let mut bad = bytes.clone();
        let r = PackedTraceReader::new(std::io::Cursor::new(&bytes[..])).unwrap();
        let index_offset =
            (bytes.len() as u64 - FOOTER_BYTES - 8 - r.index().len() as u64 * INDEX_ENTRY_BYTES)
                as usize;
        bad[index_offset + 4..index_offset + 8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            unpack_bundle(&bad),
            Err(PackError::Corrupt { .. })
        ));
        // Point the footer's index offset outside the file.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 12..n - 4].copy_from_slice(&(n as u64 * 2).to_be_bytes());
        assert!(matches!(
            unpack_bundle(&bad),
            Err(PackError::Corrupt {
                what: "index offset"
            })
        ));
    }

    /// The dictionary part of a chunk as the scanning encoder built it:
    /// first appearance appends, a later appearance finds by `position`.
    fn scanned_dictionaries(records: &[MsgRecord]) -> (Vec<(u16, u8)>, Vec<u16>) {
        let (mut agents, mut senders) = (Vec::new(), Vec::new());
        for r in records {
            let a = (r.node.raw(), u8::from(r.role == Role::Directory));
            if !agents.contains(&a) {
                agents.push(a);
            }
            if !senders.contains(&r.sender.raw()) {
                senders.push(r.sender.raw());
            }
        }
        (agents, senders)
    }

    /// Ids across the whole 12-bit range, both roles of one node, repeats:
    /// the table lookup must assign the indices the dictionary scan did,
    /// and a second chunk through the same encoder must start from empty
    /// tables (its bytes are those of a fresh encoder).
    #[test]
    fn table_lookup_builds_the_first_appearance_dictionaries() {
        let wide = |i: u64| MsgRecord {
            node: NodeId::new(((i * 1223) % 4096) as usize),
            sender: NodeId::new(((i * 577 + 4095) % 4096) as usize),
            ..rec(i)
        };
        let first: Vec<MsgRecord> = (0..3000).map(wide).chain((0..50).map(wide)).collect();
        let second: Vec<MsgRecord> = (2990..3400).map(wide).collect();
        let mut encoder = ChunkEncoder::new();
        for chunk in [&first, &second] {
            let raw = encoder.encode(chunk);
            assert_eq!(raw, ChunkEncoder::new().encode(chunk), "state left behind");
            assert_eq!(&decode_chunk_raw(&raw, chunk.len()).unwrap(), chunk);
            // Skip the timestamp column, then read the dictionaries back.
            let mut pos = 0;
            for _ in 0..chunk.len() {
                get_varint(&raw, &mut pos).unwrap();
            }
            let (agents, senders) = scanned_dictionaries(chunk);
            assert!(agents.len() > 2000 || chunk.len() < 1000);
            assert_eq!(get_varint(&raw, &mut pos).unwrap(), agents.len() as u64);
            for (node, role) in agents {
                assert_eq!(get_varint(&raw, &mut pos).unwrap(), u64::from(node));
                assert_eq!(raw[pos], role);
                pos += 1;
            }
            assert_eq!(get_varint(&raw, &mut pos).unwrap(), senders.len() as u64);
            for s in senders {
                assert_eq!(get_varint(&raw, &mut pos).unwrap(), u64::from(s));
            }
        }
    }

    #[test]
    fn streaming_writer_bounds_memory() {
        let meta = TraceMeta::new("stream", 16, 4);
        let mut w = PackedTraceWriter::new(std::io::Cursor::new(Vec::new()), &meta, 64).unwrap();
        for i in 0..1000u64 {
            w.push(rec(i)).unwrap();
            assert!(w.buf.len() < 64, "buffer must flush at the chunk size");
        }
        let (cursor, stats) = w.finish().unwrap();
        assert_eq!(stats.records, 1000);
        assert_eq!(stats.chunks, 16); // 15 full + 1 partial
        let decoded = unpack_bundle(&cursor.into_inner()).unwrap();
        assert_eq!(decoded.records(), sample(1000).records());
    }

    /// A sink that fails its `fail_at`-th write and accepts the rest, as
    /// a full disk that a later delete makes room on would.
    #[derive(Debug)]
    struct FailsOnce {
        inner: std::io::Cursor<Vec<u8>>,
        writes: usize,
        fail_at: usize,
    }

    impl Write for FailsOnce {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.writes == self.fail_at {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl Seek for FailsOnce {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn a_failed_chunk_write_spends_the_writer() {
        let meta = TraceMeta::new("full", 16, 1);
        // Write 1 is the header, 2 and 3 the first chunk's head and
        // payload: fail either half of the second chunk.
        for fail_at in [4, 5] {
            let mut sink = FailsOnce {
                inner: std::io::Cursor::new(Vec::new()),
                writes: 0,
                fail_at,
            };
            let mut w = PackedTraceWriter::new(&mut sink, &meta, 4).unwrap();
            let pushed: Vec<bool> = (0..10).map(|i| w.push(rec(i)).is_ok()).collect();
            let mut want = [false; 10];
            want[..7].fill(true);
            assert_eq!(pushed, want, "fail at write {fail_at}");
            assert!(w.push_all(&[rec(10)]).is_err());
            let err = w.finish().unwrap_err();
            assert!(matches!(&err, PackError::Io(e) if e.kind() == io::ErrorKind::StorageFull));
            assert_eq!(sink.writes, fail_at, "nothing written after the failure");
        }
    }

    #[test]
    fn oversized_metadata_is_an_encode_error() {
        let long = "x".repeat(u16::MAX as usize + 1);
        let meta = TraceMeta::new(long, 2, 1);
        assert!(matches!(
            PackedTraceWriter::new(std::io::Cursor::new(Vec::new()), &meta, 8),
            Err(PackError::Encode(_))
        ));
    }

    #[test]
    fn stats_export_obs_under_trace_pack() {
        let b = sample(500);
        let (_, stats) = pack_bundle_with_stats(&b, 128).unwrap();
        let mut snap = obs::Snapshot::new();
        stats.export_obs(&mut snap);
        assert!(snap.names().iter().all(|n| n.starts_with("trace.pack.")));
        assert_eq!(
            snap.get("trace.pack.records"),
            Some(&obs::MetricValue::Counter(500))
        );
        assert!(matches!(
            snap.get("trace.pack.ratio"),
            Some(obs::MetricValue::Gauge(r)) if *r > 1.0
        ));
    }

    #[test]
    fn errors_render() {
        assert!(PackError::Truncated.to_string().contains("truncated"));
        assert!(PackError::CrcMismatch { chunk: 3 }
            .to_string()
            .contains('3'));
        assert!(PackError::BadMagic { what: "file" }
            .to_string()
            .contains("magic"));
        assert!(PackError::Corrupt { what: "varint" }
            .to_string()
            .contains("varint"));
    }
}
