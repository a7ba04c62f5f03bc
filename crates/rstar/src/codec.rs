//! Binary on-page node format.
//!
//! Every node is serialized into one fixed-size page:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "RSTN"
//! 4       1     format version (1)
//! 5       1     node type (0 = leaf, 1 = internal)
//! 6       2     dimensionality
//! 8       4     level
//! 12      4     number of entries
//! 16      ...   entries
//! ```
//!
//! Internal entry: `2·dim` little-endian `f64` MBR corners (lo then hi),
//! `u64` child page id, `u64` subtree object count.
//! Leaf entry: `dim` `f64` coordinates, `u64` object id.
//!
//! The in-memory [`Node`] mirrors this layout (one flat coordinate
//! buffer, one payload buffer), so decoding a page is two allocations
//! regardless of how many entries it holds. The bytes themselves are
//! unchanged from the entry-vector era — pages written by either code
//! path are interchangeable.

use crate::node::Node;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use sqda_geom::GeomError;
use sqda_storage::{PageId, StorageError};

/// Size of the fixed node header in bytes.
pub const HEADER_SIZE: usize = 16;

const MAGIC: &[u8; 4] = b"RSTN";
const VERSION: u8 = 1;
const TYPE_LEAF: u8 = 0;
const TYPE_INTERNAL: u8 = 1;

/// Bytes one internal entry occupies for dimensionality `dim`.
pub const fn internal_entry_size(dim: usize) -> usize {
    2 * dim * 8 + 8 + 8
}

/// Bytes one leaf entry occupies for dimensionality `dim`.
pub const fn leaf_entry_size(dim: usize) -> usize {
    dim * 8 + 8
}

/// Serializes a node into page bytes.
///
/// # Panics
///
/// Panics if the node's dimensionality disagrees with `dim` — that is a
/// programming error upstream, not a recoverable condition.
pub fn encode_node(node: &Node, dim: usize) -> Bytes {
    let n = node.len();
    assert!(
        node.is_empty() || node.dim() == dim,
        "node dimension mismatch: node has {}, tree expects {dim}",
        node.dim()
    );
    let (ty, body) = if node.is_leaf() {
        (TYPE_LEAF, n * leaf_entry_size(dim))
    } else {
        (TYPE_INTERNAL, n * internal_entry_size(dim))
    };
    let mut buf = BytesMut::with_capacity(HEADER_SIZE + body);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(ty);
    buf.put_u16_le(dim as u16);
    buf.put_u32_le(node.level());
    buf.put_u32_le(n as u32);
    if node.is_leaf() {
        for (coords, object) in node.leaf_iter() {
            for c in coords {
                buf.put_f64_le(*c);
            }
            buf.put_u64_le(object.0);
        }
    } else {
        for e in node.internal_iter() {
            for c in e.mbr.lo() {
                buf.put_f64_le(*c);
            }
            for c in e.mbr.hi() {
                buf.put_f64_le(*c);
            }
            buf.put_u64_le(e.child.as_raw());
            buf.put_u64_le(e.count);
        }
    }
    buf.freeze()
}

fn corrupt(page: PageId, detail: impl Into<String>) -> StorageError {
    StorageError::CorruptPage {
        page,
        detail: detail.into(),
    }
}

/// Validates one decoded MBR (corner pair) with the same rules — and the
/// same error values — as `Rect::new`, without building a `Rect`.
fn validate_mbr(lo: &[f64], hi: &[f64]) -> Result<(), GeomError> {
    if lo.iter().chain(hi.iter()).any(|c| !c.is_finite()) {
        return Err(GeomError::NonFiniteCoordinate);
    }
    for (dim, (l, h)) in lo.iter().zip(hi.iter()).enumerate() {
        if l > h {
            return Err(GeomError::InvertedCorners { dim });
        }
    }
    Ok(())
}

/// Words `skip .. skip + take` of every `per`-word entry of `body`, in
/// entry order, as one flat block. The iterator reports its exact length,
/// so the block is allocated once, at its final size.
fn gather<T>(
    body: &[u8],
    per: usize,
    skip: usize,
    take: usize,
    from_word: impl Fn(u64) -> T,
) -> Box<[T]> {
    let (mut at, mut left) = (skip, take);
    let next = || {
        if left == 0 {
            at += per - take;
            left = take;
        }
        let word = body[8 * at..][..8].try_into().expect("eight bytes");
        at += 1;
        left -= 1;
        from_word(u64::from_le_bytes(word))
    };
    std::iter::repeat_with(next)
        .take(body.len() / (8 * per) * take)
        .collect()
}

/// Deserializes page bytes into a node.
///
/// `page` is used only for error reporting. Validates magic, version,
/// dimensionality and length; internal MBRs are additionally checked for
/// finiteness and corner ordering, exactly as before the flat layout.
pub fn decode_node(mut data: Bytes, dim: usize, page: PageId) -> Result<Node, StorageError> {
    if data.len() < HEADER_SIZE {
        return Err(corrupt(page, format!("short page: {} bytes", data.len())));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(corrupt(page, "bad magic"));
    }
    let version = data.get_u8();
    if version != VERSION {
        return Err(corrupt(page, format!("unsupported version {version}")));
    }
    let ty = data.get_u8();
    let file_dim = data.get_u16_le() as usize;
    if file_dim != dim {
        return Err(corrupt(
            page,
            format!("dimension mismatch: page has {file_dim}, tree expects {dim}"),
        ));
    }
    let level = data.get_u32_le();
    let n = data.get_u32_le() as usize;
    match ty {
        TYPE_LEAF => {
            if level != 0 {
                return Err(corrupt(page, format!("leaf with level {level}")));
            }
            if data.remaining() < n * leaf_entry_size(dim) {
                return Err(corrupt(page, "truncated leaf entries"));
            }
            let body = &data[..n * leaf_entry_size(dim)];
            let coords = gather(body, dim + 1, 0, dim, f64::from_bits);
            let payload = gather(body, dim + 1, dim, 1, |id| id);
            Ok(Node::from_raw_parts(0, dim as u32, coords, payload))
        }
        TYPE_INTERNAL => {
            if level == 0 {
                return Err(corrupt(page, "internal node with level 0"));
            }
            if data.remaining() < n * internal_entry_size(dim) {
                return Err(corrupt(page, "truncated internal entries"));
            }
            let body = &data[..n * internal_entry_size(dim)];
            let coords = gather(body, 2 * dim + 2, 0, 2 * dim, f64::from_bits);
            let payload = gather(body, 2 * dim + 2, 2 * dim, 2, |word| word);
            for mbr in coords.chunks_exact((2 * dim).max(1)) {
                let (lo, hi) = mbr.split_at(dim);
                validate_mbr(lo, hi).map_err(|e| corrupt(page, format!("bad MBR: {e}")))?;
            }
            Ok(Node::from_raw_parts(level, dim as u32, coords, payload))
        }
        other => Err(corrupt(page, format!("unknown node type {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{InternalEntry, LeafEntry, ObjectId};
    use sqda_geom::{Point, Rect};

    fn page() -> PageId {
        PageId::from_raw(9)
    }

    fn sample_leaf(dim: usize, n: usize) -> Node {
        Node::from_leaf_entries(
            &(0..n)
                .map(|i| {
                    LeafEntry::new(
                        Point::new((0..dim).map(|d| (i * dim + d) as f64 * 0.5).collect()),
                        ObjectId(i as u64 * 3),
                    )
                })
                .collect::<Vec<_>>(),
        )
    }

    fn sample_internal(dim: usize, n: usize) -> Node {
        Node::from_internal_entries(
            2,
            &(0..n)
                .map(|i| {
                    let lo: Vec<f64> = (0..dim).map(|d| (i + d) as f64).collect();
                    let hi: Vec<f64> = lo.iter().map(|c| c + 1.5).collect();
                    InternalEntry::new(
                        Rect::new(lo, hi).unwrap(),
                        PageId::from_raw(100 + i as u64),
                        (i as u64 + 1) * 7,
                    )
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn leaf_roundtrip() {
        for dim in [1, 2, 5, 10] {
            let node = sample_leaf(dim, 13);
            let bytes = encode_node(&node, dim);
            let back = decode_node(bytes, dim, page()).unwrap();
            assert_eq!(node, back);
        }
    }

    #[test]
    fn internal_roundtrip() {
        for dim in [1, 2, 5, 10] {
            let node = sample_internal(dim, 7);
            let bytes = encode_node(&node, dim);
            let back = decode_node(bytes, dim, page()).unwrap();
            assert_eq!(node, back);
        }
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let node = Node::empty_leaf();
        let back = decode_node(encode_node(&node, 3), 3, page()).unwrap();
        assert_eq!(node, back);
    }

    #[test]
    fn encoded_size_matches_formula() {
        let dim = 4;
        let node = sample_leaf(dim, 10);
        assert_eq!(
            encode_node(&node, dim).len(),
            HEADER_SIZE + 10 * leaf_entry_size(dim)
        );
        let node = sample_internal(dim, 10);
        assert_eq!(
            encode_node(&node, dim).len(),
            HEADER_SIZE + 10 * internal_entry_size(dim)
        );
    }

    #[test]
    fn full_2d_page_fits() {
        // A node at exactly max capacity must fit in the page.
        let cfg = crate::RStarConfig::new(2);
        let node = sample_leaf(2, cfg.max_leaf_entries);
        assert!(encode_node(&node, 2).len() <= cfg.page_size);
        let node = sample_internal(2, cfg.max_internal_entries);
        assert!(encode_node(&node, 2).len() <= cfg.page_size);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = encode_node(&sample_leaf(2, 1), 2).to_vec();
        b[0] = b'X';
        let err = decode_node(Bytes::from(b), 2, page()).unwrap_err();
        assert!(matches!(err, StorageError::CorruptPage { .. }));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut b = encode_node(&sample_leaf(2, 1), 2).to_vec();
        b[4] = 99;
        assert!(decode_node(Bytes::from(b), 2, page()).is_err());
    }

    #[test]
    fn rejects_dim_mismatch() {
        let b = encode_node(&sample_leaf(3, 2), 3);
        assert!(decode_node(b, 2, page()).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let b = encode_node(&sample_internal(2, 5), 2);
        let truncated = b.slice(0..b.len() - 10);
        assert!(decode_node(truncated, 2, page()).is_err());
        let short = b.slice(0..8);
        assert!(decode_node(short, 2, page()).is_err());
    }

    #[test]
    fn rejects_unknown_type() {
        let mut b = encode_node(&sample_leaf(2, 0), 2).to_vec();
        b[5] = 7;
        assert!(decode_node(Bytes::from(b), 2, page()).is_err());
    }

    #[test]
    fn rejects_leaf_with_nonzero_level() {
        let mut b = encode_node(&sample_leaf(2, 0), 2).to_vec();
        b[8] = 1; // level byte
        assert!(decode_node(Bytes::from(b), 2, page()).is_err());
    }

    #[test]
    fn rejects_inverted_internal_mbr() {
        // Corrupt the first f64 of the first internal entry (its lo[0])
        // so lo > hi; the decoder must report a bad MBR.
        let mut b = encode_node(&sample_internal(2, 3), 2).to_vec();
        b[HEADER_SIZE..HEADER_SIZE + 8].copy_from_slice(&1e9f64.to_le_bytes());
        let err = decode_node(Bytes::from(b), 2, page()).unwrap_err();
        assert!(err.to_string().contains("bad MBR"), "{err}");
    }

    #[test]
    fn rejects_non_finite_internal_mbr() {
        let mut b = encode_node(&sample_internal(2, 3), 2).to_vec();
        b[HEADER_SIZE..HEADER_SIZE + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let err = decode_node(Bytes::from(b), 2, page()).unwrap_err();
        assert!(err.to_string().contains("bad MBR"), "{err}");
    }
}
