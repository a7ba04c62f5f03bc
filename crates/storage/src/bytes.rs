//! Page byte buffers: [`Bytes`], a cheaply cloneable window into a
//! shared immutable buffer (what `PageStore` and `IoBackend` traffic in),
//! and [`BytesMut`], the growable buffer a page or the superblock is
//! encoded into. Both carry the little-endian reads and writes the node
//! codecs and the superblock use; a `Bytes` read consumes from the front.
//!
//! Allocation is part of the contract: a frozen buffer is one
//! `Arc<[u8]>` of exactly the encoded length, and the server's resident
//! size follows how those blocks pack.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// A shared, immutable byte buffer (an `Arc<[u8]>` window).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// A buffer holding a copy of `s`.
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }

    /// A buffer holding a copy of `s`.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// The sub-window `r` of this buffer, sharing its storage.
    pub fn slice(&self, r: Range<usize>) -> Bytes {
        assert!(r.start <= r.end && self.start + r.end <= self.end);
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + r.start,
            end: self.start + r.end,
        }
    }

    /// Moves the first `dst.len()` bytes into `dst`.
    pub fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self[..dst.len()]);
        self.start += dst.len();
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut b = [0u8; N];
        self.copy_to_slice(&mut b);
        b
    }

    /// Consumes one byte.
    pub fn get_u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    /// Consumes a little-endian `u16`.
    pub fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }

    /// Consumes a little-endian `u32`.
    pub fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    /// Consumes a little-endian `u64`.
    pub fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

/// A growable byte buffer, frozen into [`Bytes`] once encoded.
#[derive(Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// The encoded bytes as one shared buffer.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Appends `src`.
    pub fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}
