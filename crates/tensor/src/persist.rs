//! Minimal, dependency-free persistence for named matrices and parameter
//! sets — enough to save a trained detector to disk and reload it for
//! inference (little-endian binary format with a magic header).
//!
//! Format:
//! ```text
//! magic  : b"UVDT0001"
//! count  : u32
//! entry* : name_len u32 | name bytes (utf-8) | rows u32 | cols u32 | f32*
//! ```

use crate::matrix::Matrix;
use crate::param::ParamSet;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"UVDT0001";

/// Longest serializable name (guards hostile headers).
const MAX_NAME_LEN: usize = 1 << 20;
/// Largest deserializable matrix in elements (guards hostile headers).
const MAX_ELEMS: usize = 1 << 28;

/// Checked conversion for on-disk `u32` fields. The old truncating `as u32`
/// casts silently wrote corrupt files for dimensions above `u32::MAX`.
fn u32_field(n: usize, what: &str) -> io::Result<u32> {
    u32::try_from(n).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what} {n} does not fit the u32 format field"),
        )
    })
}

/// An ordered collection of named matrices.
///
/// Lookups go through a name→index map kept in lockstep with the entry
/// vector, so `get`/`insert` are O(1) in the store size — `restore_params`
/// on an m-parameter model over an n-entry store is O(m), not O(n·m).
#[derive(Clone, Debug, Default)]
pub struct MatrixStore {
    entries: Vec<(String, Matrix)>,
    index: HashMap<String, usize>,
}

impl PartialEq for MatrixStore {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived state; two stores are equal iff their
        // ordered entries are.
        self.entries == other.entries
    }
}

impl MatrixStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a named matrix.
    pub fn insert(&mut self, name: impl Into<String>, m: Matrix) {
        let name = name.into();
        match self.index.get(&name) {
            Some(&i) => self.entries[i].1 = m,
            None => {
                self.index.insert(name.clone(), self.entries.len());
                self.entries.push((name, m));
            }
        }
    }

    /// Look up a matrix by name.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.index.get(name).map(|&i| &self.entries[i].1)
    }

    /// Position of a named entry in insertion order.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Iterate `(name, matrix)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.entries.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Capture every parameter of a set (by parameter name).
    pub fn capture_params(&mut self, params: &ParamSet) {
        for p in params.iter() {
            self.insert(p.name(), p.value().clone());
        }
    }

    /// Remove a named matrix, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Matrix> {
        let i = self.index.remove(name)?;
        let (_, m) = self.entries.remove(i);
        // Entries after the removed slot shifted down by one.
        for (n, _) in &self.entries[i..] {
            if let Some(slot) = self.index.get_mut(n) {
                *slot -= 1;
            }
        }
        Some(m)
    }

    /// Check that every parameter of a set is present in the store with a
    /// matching shape, without mutating anything. Callers restoring several
    /// pieces of state run this first so a failed restore is a no-op.
    pub fn validate_params(&self, params: &ParamSet) -> io::Result<()> {
        for p in params.iter() {
            let name = p.name();
            let m = self.get(&name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("missing parameter '{name}'"),
                )
            })?;
            if m.shape() != p.shape() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shape mismatch for '{name}': {:?} vs {:?}",
                        m.shape(),
                        p.shape()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Restore parameters of a set from the store by name. Every parameter
    /// must be present with a matching shape; validation runs up front so a
    /// failure leaves every parameter untouched. Each lookup is O(1)
    /// through the store's name index.
    pub fn restore_params(&self, params: &ParamSet) -> io::Result<()> {
        self.validate_params(params)?;
        for p in params.iter() {
            let m = self.get(&p.name()).expect("validated above");
            *p.value_mut() = m.clone();
        }
        Ok(())
    }

    /// Serialize to a writer. Fails with `InvalidInput` (writing nothing
    /// useful) if any count or dimension overflows the format's u32 fields.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&u32_field(self.entries.len(), "entry count")?.to_le_bytes())?;
        for (name, m) in &self.entries {
            write_entry_payload(w, name, m)?;
        }
        Ok(())
    }

    /// Deserialize from a reader.
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
        }
        let count = read_u32(r)? as usize;
        let mut store = MatrixStore::new();
        for _ in 0..count {
            let name = read_name(r, "name")?;
            let m = read_matrix_payload(r)?;
            store.insert_unique(name, m)?;
        }
        Ok(store)
    }

    /// Insert rejecting duplicates — the read path uses this so a corrupt
    /// or crafted file with two entries of the same name is an error
    /// instead of one copy silently shadowing the other.
    fn insert_unique(&mut self, name: String, m: Matrix) -> io::Result<()> {
        if self.index.contains_key(&name) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("duplicate entry '{name}'"),
            ));
        }
        self.insert(name, m);
        Ok(())
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut f)?;
        f.flush()
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut f = io::BufReader::new(std::fs::File::open(path)?);
        Self::read_from(&mut f)
    }
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Read a length-prefixed utf-8 string with the hostile-header length guard.
fn read_name(r: &mut impl Read, what: &str) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    if len > MAX_NAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{what} too long"),
        ));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, format!("non-utf8 {what}")))
}

/// Write one `name | rows | cols | f32*` entry payload, with checked u32
/// conversions throughout.
fn write_entry_payload(w: &mut impl Write, name: &str, m: &Matrix) -> io::Result<()> {
    let bytes = name.as_bytes();
    w.write_all(&u32_field(bytes.len(), "name length")?.to_le_bytes())?;
    w.write_all(bytes)?;
    w.write_all(&u32_field(m.rows(), "row count")?.to_le_bytes())?;
    w.write_all(&u32_field(m.cols(), "column count")?.to_le_bytes())?;
    for &v in m.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Read one `rows | cols | f32*` matrix payload with the size guard.
fn read_matrix_payload(r: &mut impl Read) -> io::Result<Matrix> {
    let rows = read_u32(r)? as usize;
    let cols = read_u32(r)? as usize;
    if rows.checked_mul(cols).is_none_or(|n| n > MAX_ELEMS) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "matrix too large",
        ));
    }
    let mut data = vec![0.0f32; rows * cols];
    let mut buf = [0u8; 4];
    for v in &mut data {
        r.read_exact(&mut buf)?;
        *v = f32::from_le_bytes(buf);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    // Exact float equality is intended in these tests: they assert
    // exact constants and bit-reproducible results, not tolerances.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::init::{normal_matrix, seeded_rng};
    use crate::param::ParamRef;

    #[test]
    fn roundtrip_in_memory() {
        let mut rng = seeded_rng(1);
        let mut store = MatrixStore::new();
        store.insert("a", normal_matrix(3, 4, 0.0, 1.0, &mut rng));
        store.insert("b", Matrix::zeros(1, 1));
        store.insert("empty", Matrix::zeros(2, 0));
        let mut buf = Vec::new();
        store.write_to(&mut buf).expect("write");
        let back = MatrixStore::read_from(&mut buf.as_slice()).expect("read");
        assert_eq!(store, back);
    }

    #[test]
    fn insert_replaces_by_name() {
        let mut store = MatrixStore::new();
        store.insert("x", Matrix::filled(1, 1, 1.0));
        store.insert("x", Matrix::filled(1, 1, 2.0));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("x").expect("x").get(0, 0), 2.0);
    }

    #[test]
    fn param_capture_restore() {
        let mut rng = seeded_rng(2);
        let p1 = ParamRef::new("w", normal_matrix(2, 3, 0.0, 1.0, &mut rng));
        let p2 = ParamRef::new("b", normal_matrix(1, 3, 0.0, 1.0, &mut rng));
        let mut set = ParamSet::new();
        set.track(p1.clone());
        set.track(p2.clone());
        let mut store = MatrixStore::new();
        store.capture_params(&set);
        // Mutate, then restore.
        p1.value_mut().set(0, 0, 99.0);
        store.restore_params(&set).expect("restore");
        assert_ne!(p1.value().get(0, 0), 99.0);
    }

    #[test]
    fn failed_restore_mutates_nothing() {
        // Two params; the store has a valid entry for the first but a bad
        // shape for the second. The first must stay untouched.
        let p1 = ParamRef::new("w", Matrix::filled(2, 2, 1.0));
        let p2 = ParamRef::new("b", Matrix::filled(1, 2, 1.0));
        let mut set = ParamSet::new();
        set.track(p1.clone());
        set.track(p2.clone());
        let mut store = MatrixStore::new();
        store.insert("w", Matrix::filled(2, 2, 9.0));
        store.insert("b", Matrix::filled(3, 3, 9.0)); // wrong shape
        assert!(store.restore_params(&set).is_err());
        assert_eq!(p1.value().get(0, 0), 1.0, "failed restore must be a no-op");
        assert_eq!(p2.value().get(0, 0), 1.0);
    }

    #[test]
    fn remove_drops_named_entry() {
        let mut store = MatrixStore::new();
        store.insert("x", Matrix::filled(1, 1, 5.0));
        assert_eq!(store.remove("x").expect("present").get(0, 0), 5.0);
        assert!(store.remove("x").is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn remove_keeps_index_consistent() {
        let mut store = MatrixStore::new();
        store.insert("a", Matrix::filled(1, 1, 1.0));
        store.insert("b", Matrix::filled(1, 1, 2.0));
        store.insert("c", Matrix::filled(1, 1, 3.0));
        store.remove("a");
        // Later entries shifted down; lookups must still land on the right
        // matrices, and replacement must hit the shifted slot.
        assert_eq!(store.get("b").expect("b").get(0, 0), 2.0);
        assert_eq!(store.get("c").expect("c").get(0, 0), 3.0);
        store.insert("b", Matrix::filled(1, 1, 20.0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("b").expect("b").get(0, 0), 20.0);
        assert_eq!(store.position("b"), Some(0));
        assert_eq!(store.position("c"), Some(1));
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let p = ParamRef::new("w", Matrix::zeros(2, 2));
        let mut set = ParamSet::new();
        set.track(p);
        let mut store = MatrixStore::new();
        store.insert("w", Matrix::zeros(3, 3));
        assert!(store.restore_params(&set).is_err());
    }

    #[test]
    fn restore_rejects_missing_param() {
        let p = ParamRef::new("w", Matrix::zeros(2, 2));
        let mut set = ParamSet::new();
        set.track(p);
        let store = MatrixStore::new();
        assert!(store.restore_params(&set).is_err());
    }

    #[test]
    fn read_rejects_bad_magic() {
        let buf = b"NOTMAGIC\0\0\0\0".to_vec();
        assert!(MatrixStore::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn read_rejects_duplicate_names() {
        // A store can never hold duplicates, so craft the bytes by hand:
        // two entries both named "w".
        let mut store = MatrixStore::new();
        store.insert("w", Matrix::filled(1, 1, 1.0));
        let mut buf = Vec::new();
        store.write_to(&mut buf).expect("write");
        // Append a second copy of the single entry and bump the count.
        let entry = buf[12..].to_vec();
        buf.extend_from_slice(&entry);
        buf[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = MatrixStore::read_from(&mut buf.as_slice()).expect_err("duplicate must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn write_rejects_oversized_dimensions() {
        // rows > u32::MAX with cols = 0 is constructible without
        // allocating: the data vector is empty.
        let huge = Matrix::zeros((u32::MAX as usize) + 2, 0);
        let mut store = MatrixStore::new();
        store.insert("huge", huge);
        let mut buf = Vec::new();
        let err = store.write_to(&mut buf).expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn file_roundtrip() {
        let mut store = MatrixStore::new();
        store.insert("m", Matrix::from_rows(&[&[1.5, -2.5]]));
        let dir = std::env::temp_dir().join("uvd_persist_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("weights.uvdt");
        store.save(&path).expect("save");
        let back = MatrixStore::load(&path).expect("load");
        assert_eq!(store, back);
        let _ = std::fs::remove_file(&path);
    }
}
