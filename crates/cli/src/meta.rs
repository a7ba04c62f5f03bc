//! The `tree.meta` sidecar file: everything needed to reopen a persisted
//! tree (the `FileStore` superblock holds page placements; this file
//! holds the tree-level metadata).

use std::path::Path;

/// Tree metadata persisted next to the store files.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeMeta {
    /// Root page id (raw).
    pub root: u64,
    /// Dimensionality.
    pub dim: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Declustering heuristic name (for display; reopening uses PI for
    /// future splits unless overridden).
    pub decluster: String,
}

impl TreeMeta {
    /// Writes the sidecar as simple `key=value` lines through
    /// [`sqda_storage::write_file_atomic`]: a crash leaves the old file
    /// or the new one, never a torn one.
    pub fn save(&self, store_dir: &Path) -> std::io::Result<()> {
        let body = format!(
            "root={}\ndim={}\npage_size={}\ndecluster={}\n",
            self.root, self.dim, self.page_size, self.decluster
        );
        sqda_storage::write_file_atomic(&store_dir.join("tree.meta"), body.as_bytes())
    }

    /// Reads the sidecar.
    ///
    /// # Errors
    ///
    /// The read's own error when the file cannot be read, and
    /// [`ErrorKind::InvalidData`](std::io::ErrorKind::InvalidData) unless
    /// it is complete: newline-terminated, with all four keys and their
    /// values well-formed. A file cut short anywhere is refused rather
    /// than read as what its prefix says (`page_size=10` of `1024`).
    pub fn load(store_dir: &Path) -> std::io::Result<Self> {
        let body = std::fs::read_to_string(store_dir.join("tree.meta"))?;
        let invalid = |what: String| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("tree.meta: {what}"),
            )
        };
        if !body.ends_with('\n') {
            return Err(invalid("truncated (no final newline)".into()));
        }
        let (mut root, mut dim, mut page_size, mut decluster) = (None, None, None, None);
        for line in body.lines() {
            let Some((k, v)) = line.split_once('=') else {
                return Err(invalid(format!("malformed line {line:?}")));
            };
            let number = || v.parse().map_err(|_| invalid(format!("bad {k} {v:?}")));
            match k {
                "root" => root = Some(number()?),
                "dim" => dim = Some(number()? as usize),
                "page_size" => page_size = Some(number()? as usize),
                "decluster" => decluster = Some(v.to_string()),
                _ => {}
            }
        }
        let missing = |what: &str| invalid(format!("missing {what}"));
        Ok(Self {
            root: root.ok_or_else(|| missing("root"))?,
            dim: dim.ok_or_else(|| missing("dim"))?,
            page_size: page_size.ok_or_else(|| missing("page_size"))?,
            decluster: decluster.ok_or_else(|| missing("decluster"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join(format!("sqda-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = TreeMeta {
            root: 42,
            dim: 5,
            page_size: 2048,
            decluster: "round-robin".into(),
        };
        m.save(&dir).unwrap();
        assert_eq!(TreeMeta::load(&dir).unwrap(), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saving_over_an_existing_file_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("sqda-meta-over-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = TreeMeta {
            root: 7,
            dim: 2,
            page_size: 1024,
            decluster: "proximity-index".into(),
        };
        m.save(&dir).unwrap();
        m.root = 9;
        m.save(&dir).unwrap();
        assert_eq!(TreeMeta::load(&dir).unwrap(), m);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["tree.meta"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_proper_prefix_is_invalid_data() {
        let dir = std::env::temp_dir().join(format!("sqda-meta-cut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = TreeMeta {
            root: 42,
            dim: 5,
            page_size: 1024,
            decluster: "round-robin".into(),
        };
        m.save(&dir).unwrap();
        let path = dir.join("tree.meta");
        let whole = std::fs::read(&path).unwrap();
        for cut in 0..whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let err = TreeMeta::load(&dir).expect_err("a prefix must not load");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
        }
        std::fs::write(&path, &whole).unwrap();
        assert_eq!(TreeMeta::load(&dir).unwrap(), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_incomplete() {
        let dir = std::env::temp_dir().join(format!("sqda-meta-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tree.meta"), "dim=2\n").unwrap();
        assert!(TreeMeta::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
