//! Page byte buffers: [`Bytes`], a cheaply cloneable window into a
//! shared immutable buffer (what `PageStore` and `IoBackend` traffic in),
//! with the little-endian reads the node codecs use; a read consumes
//! from the front.
//!
//! Allocation is part of the contract: an encoded page
//! ([`Bytes::filled`]) is one `Arc<[u8]>` of exactly the encoded length,
//! written in place, and the server's resident size follows how those
//! blocks pack.

use std::convert::Infallible;
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

    /// A buffer holding a copy of `s`, in one allocation.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes {
            data: Arc::from(s),
            start: 0,
            end: s.len(),
        }
    }

    /// A buffer of `len` bytes, zeroed and then written in place by
    /// `fill`: one allocation of exactly `len` bytes, no copy.
    pub fn filled(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        let Ok(bytes) = Bytes::try_filled(len, |buf| {
            fill(buf);
            Ok::<_, Infallible>(())
        });
        bytes
    }

    /// [`Bytes::filled`] with a `fill` that can fail, as a read into the
    /// buffer can: the buffer is dropped and `fill`'s error returned.
    pub fn try_filled<E>(
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut data: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        fill(Arc::get_mut(&mut data).expect("a new buffer has one owner"))?;
        Ok(Bytes {
            data,
            start: 0,
            end: len,
        })
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
