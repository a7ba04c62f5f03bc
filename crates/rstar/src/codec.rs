//! Binary on-page node format, shared by both trees.
//!
//! Every node is serialized into one fixed-size page:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  ("RSTN" for the R*-tree, "SSTN" for the SS-tree)
//! 4       1     format version (1)
//! 5       1     node type (0 = leaf, 1 = internal)
//! 6       2     dimensionality
//! 8       4     level
//! 12      4     number of entries
//! 16      ...   entries
//! ```
//!
//! Internal entry: the bound's little-endian `f64` words — `2·dim` MBR
//! corners (lo then hi) for the R\*-tree, `dim` center coordinates then
//! the radius for the SS-tree — then the `u64` child page id and the
//! `u64` subtree object count.
//! Leaf entry: `dim` `f64` coordinates, `u64` object id.
//!
//! The in-memory [`Node`] mirrors this layout (one flat coordinate
//! buffer, one payload buffer), so decoding a page is two allocations
//! regardless of how many entries it holds.

use crate::node::Node;
use crate::{Bound, Rects};
use sqda_storage::{Bytes, PageId, StorageError};

/// Size of the fixed node header in bytes.
pub const HEADER_SIZE: usize = 16;

const VERSION: u8 = 1;
const TYPE_LEAF: u8 = 0;
const TYPE_INTERNAL: u8 = 1;

/// Bytes one internal entry of a `B`-bounded tree occupies for
/// dimensionality `dim`.
pub fn internal_entry_size<B: Bound>(dim: usize) -> usize {
    (B::words(dim) + 2) * 8
}

/// Bytes one leaf entry occupies for dimensionality `dim`.
pub const fn leaf_entry_size(dim: usize) -> usize {
    dim * 8 + 8
}

/// Serializes an R\*-tree node into page bytes; see [`encode`].
pub fn encode_node(node: &Node, dim: usize) -> Bytes {
    encode::<Rects>(node, dim)
}

/// Deserializes R\*-tree page bytes into a node; see [`decode`].
pub fn decode_node(data: Bytes, dim: usize, page: PageId) -> Result<Node, StorageError> {
    decode::<Rects>(data, dim, page)
}

/// Serializes a node of a `B`-bounded tree into page bytes.
///
/// # Panics
///
/// Panics if the node's dimensionality disagrees with `dim` — that is a
/// programming error upstream, not a recoverable condition.
pub fn encode<B: Bound>(node: &Node, dim: usize) -> Bytes {
    let n = node.len();
    assert!(
        node.is_empty() || node.dim() == dim,
        "node dimension mismatch: node has {}, tree expects {dim}",
        node.dim()
    );
    let (ty, body) = if node.is_leaf() {
        (TYPE_LEAF, n * leaf_entry_size(dim))
    } else {
        (TYPE_INTERNAL, n * internal_entry_size::<B>(dim))
    };
    Bytes::filled(HEADER_SIZE + body, |buf| {
        let (header, body) = buf.split_at_mut(HEADER_SIZE);
        header[..4].copy_from_slice(B::MAGIC);
        header[4] = VERSION;
        header[5] = ty;
        header[6..8].copy_from_slice(&(dim as u16).to_le_bytes());
        header[8..12].copy_from_slice(&node.level().to_le_bytes());
        header[12..].copy_from_slice(&(n as u32).to_le_bytes());
        let mut words = body.chunks_exact_mut(8);
        for (coords, payload) in node.entries() {
            for (c, word) in coords.iter().zip(words.by_ref()) {
                word.copy_from_slice(&c.to_le_bytes());
            }
            for (w, word) in payload.iter().zip(words.by_ref()) {
                word.copy_from_slice(&w.to_le_bytes());
            }
        }
        debug_assert!(words.next().is_none(), "entries fill the page body");
    })
}

fn corrupt(page: PageId, detail: impl Into<String>) -> StorageError {
    StorageError::CorruptPage {
        page,
        detail: detail.into(),
    }
}

/// Words `skip .. skip + take` of every `per`-word entry of `body`, in
/// entry order, as one flat block, allocated once at its final size.
fn gather<T>(
    body: &[u8],
    per: usize,
    skip: usize,
    take: usize,
    from_word: impl Fn(u64) -> T,
) -> Box<[T]> {
    let mut out = Vec::with_capacity(body.len() / (8 * per) * take);
    for entry in body.chunks_exact(8 * per) {
        out.extend(
            entry[8 * skip..8 * (skip + take)]
                .chunks_exact(8)
                .map(|word| from_word(u64::from_le_bytes(word.try_into().expect("eight bytes")))),
        );
    }
    out.into_boxed_slice()
}

/// Deserializes page bytes of a `B`-bounded tree into a node.
///
/// `page` is used only for error reporting. Validates magic, version,
/// dimensionality, level and length; every internal entry's bound is
/// additionally checked by [`Bound::check`].
pub fn decode<B: Bound>(mut data: Bytes, dim: usize, page: PageId) -> Result<Node, StorageError> {
    if data.len() < HEADER_SIZE {
        return Err(corrupt(page, format!("short page: {} bytes", data.len())));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != B::MAGIC {
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
    let (words, links) = match ty {
        TYPE_LEAF if level != 0 => return Err(corrupt(page, format!("leaf with level {level}"))),
        TYPE_INTERNAL if level == 0 => return Err(corrupt(page, "internal node with level 0")),
        TYPE_LEAF => (dim, 1),
        TYPE_INTERNAL => (B::words(dim), 2),
        other => return Err(corrupt(page, format!("unknown node type {other}"))),
    };
    let size = n * (words + links) * 8;
    if data.len() < size {
        let kind = if ty == TYPE_LEAF { "leaf" } else { "internal" };
        return Err(corrupt(page, format!("truncated {kind} entries")));
    }
    let body = &data[..size];
    let coords = gather(body, words + links, 0, words, f64::from_bits);
    let payload = gather(body, words + links, words, links, |word| word);
    if ty == TYPE_INTERNAL {
        for bound in coords.chunks_exact(words.max(1)) {
            B::check(bound).map_err(|detail| corrupt(page, detail))?;
        }
    }
    Ok(Node::from_raw_parts(level, dim as u32, coords, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{InternalEntry, LeafEntry, ObjectId};
    use crate::Spheres;
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
            HEADER_SIZE + 10 * internal_entry_size::<Rects>(dim)
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

    /// A sphere-bounded directory node: entry `i` centered at
    /// `(i·d)_d`, radius `i / 2`.
    fn sample_spheres(dim: usize, n: usize) -> Node {
        let coords: Vec<f64> = (0..n)
            .flat_map(|i| {
                (0..dim)
                    .map(move |d| (i * d) as f64)
                    .chain([i as f64 * 0.5])
            })
            .collect();
        let payload: Vec<u64> = (0..n as u64).flat_map(|i| [10 + i, 3 * (i + 1)]).collect();
        Node::from_raw_parts(2, dim as u32, coords.into(), payload.into())
    }

    #[test]
    fn roundtrip_both_kinds() {
        // The SS-tree's pages: its own magic, its sphere entries.
        for dim in [1usize, 2, 5, 10] {
            let leaf = sample_leaf(dim, 9);
            let bytes = encode::<Spheres>(&leaf, dim);
            assert_eq!(&bytes[..4], b"SSTN");
            assert_eq!(decode::<Spheres>(bytes, dim, page()).unwrap(), leaf);
            let internal = sample_spheres(dim, 5);
            let bytes = encode::<Spheres>(&internal, dim);
            assert_eq!(bytes.len(), HEADER_SIZE + 5 * (dim * 8 + 24));
            assert_eq!(decode::<Spheres>(bytes, dim, page()).unwrap(), internal);
        }
    }

    #[test]
    fn rejects_corruption() {
        // Each tree refuses the other's pages.
        let leaf = encode_node(&sample_leaf(2, 1), 2);
        assert!(decode::<Spheres>(leaf, 2, page()).is_err());
        let good = encode::<Spheres>(&sample_spheres(2, 2), 2);
        assert!(decode_node(good.clone(), 2, page()).is_err());
        assert!(decode::<Spheres>(good.clone(), 3, page()).is_err());
        assert!(decode::<Spheres>(good.slice(0..10), 2, page()).is_err());
        // Negative radius: entry 1 follows entry 0 (3 + 2 words), its
        // radius its 2 coordinates.
        let at = HEADER_SIZE + (3 + 2) * 8 + 2 * 8;
        let mut bytes = good.to_vec();
        bytes[at..at + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
        let err = decode::<Spheres>(Bytes::from(bytes), 2, page()).unwrap_err();
        assert!(err.to_string().contains("bad radius"), "{err}");
    }

    #[test]
    fn rejects_non_finite_internal_mbr() {
        let mut b = encode_node(&sample_internal(2, 3), 2).to_vec();
        b[HEADER_SIZE..HEADER_SIZE + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let err = decode_node(Bytes::from(b), 2, page()).unwrap_err();
        assert!(err.to_string().contains("bad MBR"), "{err}");
    }
}
