//! Binary serialization of CSR matrices.
//!
//! Synthesizing the larger Table II graphs takes seconds; pipelines that
//! run many harnesses over the same inputs can persist them once with
//! [`write_csr`] and reload with [`read_csr`]. The format is a small
//! versioned little-endian layout (magic, version, dimensions, then the
//! three CSR arrays), independent of `serde` so files are portable and
//! cheap to stream.

use std::io::{Read, Write};

use crate::{CsrMatrix, SparseFormatError};

/// File magic: "MPSM" (MergePath-SpMM) + format version 1.
const MAGIC: [u8; 4] = *b"MPSM";
const VERSION: u32 = 1;

/// Errors from reading a serialized matrix.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream does not start with the expected magic bytes.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u32),
    /// The decoded arrays do not form a valid CSR matrix.
    InvalidMatrix(SparseFormatError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o failure: {e}"),
            IoError::BadMagic(m) => write!(f, "bad magic {m:?}, expected \"MPSM\""),
            IoError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            IoError::InvalidMatrix(e) => write!(f, "decoded data is not valid CSR: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::InvalidMatrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn write_u64(w: &mut impl Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Elements reserved per array before any of its bytes arrive. Header
/// counts are untrusted: a hostile `nnz` must fail on the short body, not
/// abort the process on one giant up-front allocation, so past this the
/// vectors grow as data streams in.
const MAX_PREALLOC: usize = 1 << 16;

fn invalid_header(msg: &str) -> IoError {
    IoError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

/// Reads a header count, rejecting values that do not fit in `usize`.
fn read_count(r: &mut impl Read) -> Result<usize, IoError> {
    usize::try_from(read_u64(r)?).map_err(|_| invalid_header("header count exceeds usize"))
}

/// Writes a matrix to `w` in the MPSM v1 binary format.
///
/// A mutable reference to any writer can be passed (`&mut file`).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_csr<W: Write>(mut w: W, matrix: &CsrMatrix<f32>) -> Result<(), IoError> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_u64(&mut w, matrix.rows() as u64)?;
    write_u64(&mut w, matrix.cols() as u64)?;
    write_u64(&mut w, matrix.nnz() as u64)?;
    for &p in matrix.row_ptr() {
        write_u64(&mut w, p as u64)?;
    }
    for &c in matrix.col_indices() {
        write_u64(&mut w, c as u64)?;
    }
    for &v in matrix.values() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a matrix written by [`write_csr`], re-validating every CSR
/// invariant (a corrupted or truncated stream cannot produce an invalid
/// matrix).
///
/// # Errors
///
/// Returns [`IoError`] on I/O failure, wrong magic/version, a header
/// count that cannot be addressed, a body shorter than its header
/// declares, or invalid decoded structure.
pub fn read_csr<R: Read>(mut r: R) -> Result<CsrMatrix<f32>, IoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(IoError::BadMagic(magic));
    }
    let mut vbuf = [0u8; 4];
    r.read_exact(&mut vbuf)?;
    let version = u32::from_le_bytes(vbuf);
    if version != VERSION {
        return Err(IoError::BadVersion(version));
    }
    let rows = read_count(&mut r)?;
    let cols = read_count(&mut r)?;
    let nnz = read_count(&mut r)?;
    let ptr_len = rows
        .checked_add(1)
        .ok_or_else(|| invalid_header("row count overflows the row-pointer length"))?;
    let mut row_ptr = Vec::with_capacity(ptr_len.min(MAX_PREALLOC));
    for _ in 0..ptr_len {
        row_ptr.push(read_count(&mut r)?);
    }
    let mut col_indices = Vec::with_capacity(nnz.min(MAX_PREALLOC));
    for _ in 0..nnz {
        col_indices.push(read_count(&mut r)?);
    }
    let mut values = Vec::with_capacity(nnz.min(MAX_PREALLOC));
    let mut fbuf = [0u8; 4];
    for _ in 0..nnz {
        r.read_exact(&mut fbuf)?;
        values.push(f32::from_le_bytes(fbuf));
    }
    CsrMatrix::new(rows, cols, row_ptr, col_indices, values).map_err(IoError::InvalidMatrix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f32> {
        CsrMatrix::from_triplets(
            4,
            5,
            &[(0, 1, 1.5), (1, 0, -2.0), (1, 4, 3.25), (3, 2, 0.5)],
        )
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).unwrap();
        let back = read_csr(buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn empty_matrix_round_trips() {
        let m = CsrMatrix::<f32>::zeros(3, 3);
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).unwrap();
        assert_eq!(read_csr(buf.as_slice()).unwrap(), m);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_csr(&b"NOPE...."[..]).unwrap_err();
        assert!(matches!(err, IoError::BadMagic(_)));
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_csr(&mut buf, &sample()).unwrap();
        buf[4] = 99; // bump the version field
        assert!(matches!(
            read_csr(buf.as_slice()).unwrap_err(),
            IoError::BadVersion(99)
        ));
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = Vec::new();
        write_csr(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_csr(buf.as_slice()).unwrap_err(),
            IoError::Io(_)
        ));
    }

    /// A valid magic + version + (`rows`, `cols`, `nnz`) header followed
    /// by `body` bytes.
    fn header(rows: u64, cols: u64, nnz: u64, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        for v in [rows, cols, nnz] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn huge_nnz_header_with_short_body_is_an_error_not_an_abort() {
        // 56 bytes: header, a two-entry row pointer and one column index
        // out of the 2^40 the header declares.
        let mut body = Vec::new();
        for p in [0u64, 0, 0] {
            body.extend_from_slice(&p.to_le_bytes());
        }
        let buf = header(1, 1, 1 << 40, &body);
        assert_eq!(buf.len(), 56);
        assert!(matches!(
            read_csr(buf.as_slice()).unwrap_err(),
            IoError::Io(_)
        ));
    }

    #[test]
    fn huge_rows_header_with_short_body_is_an_error() {
        let buf = header(1 << 40, 1, 0, &0u64.to_le_bytes());
        assert!(matches!(
            read_csr(buf.as_slice()).unwrap_err(),
            IoError::Io(_)
        ));
        // rows + 1 overflows usize: rejected before reading the body.
        let err = read_csr(header(u64::MAX, 1, 0, &[]).as_slice()).unwrap_err();
        match err {
            IoError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }

    #[test]
    fn rejects_corrupted_structure() {
        let mut buf = Vec::new();
        write_csr(&mut buf, &sample()).unwrap();
        // Corrupt the first row-pointer entry (offset: 4 magic + 4 version
        // + 3×8 header = 32) to a non-zero start.
        buf[32] = 7;
        assert!(matches!(
            read_csr(buf.as_slice()).unwrap_err(),
            IoError::InvalidMatrix(_)
        ));
    }

    #[test]
    fn file_round_trip() {
        let m = sample();
        let path = std::env::temp_dir().join("mpspmm_io_test.mpsm");
        write_csr(std::fs::File::create(&path).unwrap(), &m).unwrap();
        let back = read_csr(std::fs::File::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m, back);
    }
}
